//! `oltp`: TPC/A transactions over many established connections.
//!
//! A server `Stack` holds 50,000 connections opened by real handshakes
//! from 16 client-host `Stack`s. Each operation is one transaction on a
//! user drawn by the seeded TPC/A model (`tcpdemux_sim::tpca`): a 128 B
//! request that the server application reads, a 256 B response it sends
//! back through `send`/`poll_transmit`, and the client's ACK — the
//! paper's four-packet exchange. Think times spread consecutive
//! transactions over different users, so there are no packet trains and
//! the demultiplexer walks its chains on nearly every lookup.

use crate::measure::Tracer;
use crate::pattern::{Pattern, Stream};
use crate::{client_addr, fatal, Fatal, Meters, Net, Serial, Side, SERVER};
use std::collections::HashMap;
use tcpdemux_core::PacketKind;
use tcpdemux_pcb::PcbId;
use tcpdemux_sim::tpca::{TpcaSim, TpcaSimConfig};
use tcpdemux_sim::TraceEvent;
use tcpdemux_stack::{RxOutcome, StackConfig, TxScratch};

const REQUEST: usize = 128;
const RESPONSE: usize = 256;

const CONNECTIONS: usize = 50_000;
const HOSTS: usize = 16;
/// Transactions in the generated user order (cycled).
const ORDER_LEN: u64 = 1 << 18;

struct Conn {
    host: usize,
    client: PcbId,
    server: PcbId,
    request: Stream,
    response: Stream,
}

/// The `oltp` workload.
pub struct Oltp {
    net: Net,
    conns: Vec<Conn>,
    /// Connection index of each transaction, from the TPC/A model.
    order: Vec<u32>,
    pattern: Pattern,
    tick: u64,
    scratch: TxScratch,
    buf: Vec<u8>,
}

/// The users' transaction order drawn from the TPC/A model for `seed`.
fn tpca_order(users: usize, transactions: u64, seed: u64) -> Vec<u32> {
    let sim = TpcaSim::new(
        TpcaSimConfig {
            users: users as u32,
            transactions,
            warmup_transactions: 0,
            ..TpcaSimConfig::default()
        },
        seed,
    );
    let index: HashMap<_, u32> = sim
        .keys()
        .into_iter()
        .enumerate()
        .map(|(i, k)| (k, i as u32))
        .collect();
    let (_, measured) = sim.trace();
    measured
        .into_iter()
        .filter_map(|ev| match ev {
            TraceEvent::Arrival {
                key,
                kind: PacketKind::Data,
                ..
            } => Some(index[&key]),
            _ => None,
        })
        .collect()
}

impl Serial for Oltp {
    const NAME: &'static str = "oltp";

    const WARMUP_OPS: u64 = 20_000;

    fn setup(seed: u64, meters: &mut Meters) -> Result<Self, Fatal> {
        let addrs: Vec<_> = (0..HOSTS).map(|h| client_addr(1, h)).collect();
        let mut net = Net::new(StackConfig::new(SERVER), &addrs)?;
        let pattern = Pattern::new(seed);
        let mut off = Tracer::new(false, std::time::Instant::now());
        let mut conns = Vec::with_capacity(CONNECTIONS);
        for i in 0..CONNECTIONS {
            let host = i % HOSTS;
            let (client, server) = net.handshake(host, None, &mut off, meters)?;
            conns.push(Conn {
                host,
                client,
                server,
                request: Stream::new(&pattern, 2 * i as u64),
                response: Stream::new(&pattern, 2 * i as u64 + 1),
            });
        }
        Ok(Self {
            net,
            conns,
            order: tpca_order(CONNECTIONS, ORDER_LEN, seed),
            pattern,
            tick: 0,
            scratch: TxScratch::new(),
            buf: vec![0; RESPONSE],
        })
    }

    fn op(&mut self, n: u64, tracer: &mut Tracer, meters: &mut Meters) -> Result<bool, Fatal> {
        let c = self.order[(n % self.order.len() as u64) as usize] as usize;
        let Oltp {
            net,
            conns,
            pattern,
            tick,
            scratch,
            buf,
            ..
        } = self;
        let conn = &mut conns[c];
        *tick += 1;
        let mut healthy = true;
        for advance in [
            net.server.advance(*tick, tracer, meters),
            net.clients[conn.host].advance(*tick, tracer, meters),
        ] {
            healthy &= advance.aborted.is_empty();
        }

        // Request: client → server; the server application reads it.
        let host = &mut net.clients[conn.host];
        let want = pattern.slice(conn.request.base, conn.request.sent, REQUEST);
        conn.request.sent += host.send(conn.client, want, tracer)? as u64;
        host.poll(scratch, tracer);
        for frame in scratch.frames.drain(..) {
            net.wire.up(frame);
        }
        let read_to = conn.request.sent;
        let mut pump_reads =
            |net: &mut Net, tracer: &mut Tracer, meters: &mut Meters, conn: &mut Conn| {
                net.pump(tracer, meters, |host, side, r, tracer, meters| {
                    let RxOutcome::Delivered { pcb, .. } = r.outcome else {
                        return Ok(());
                    };
                    let (expect, stream) = match side {
                        Side::Server => (conn.server, &mut conn.request),
                        Side::Client(_) => (conn.client, &mut conn.response),
                    };
                    if pcb != expect {
                        fatal!("data delivered to another connection than the transaction's");
                    }
                    let n = host.read(pcb, buf, tracer)?;
                    stream
                        .verify(pattern, &buf[..n])
                        .map_err(|at| Fatal(format!("corrupted byte at stream offset {at}")))?;
                    meters.verified += n as u64;
                    Ok(())
                })
            };
        pump_reads(net, tracer, meters, conn)?;
        healthy &= conn.request.read == read_to;

        // Response: server → client.
        let want = pattern.slice(conn.response.base, conn.response.sent, RESPONSE);
        conn.response.sent += net.server.send(conn.server, want, tracer)? as u64;
        net.server.poll(scratch, tracer);
        for frame in scratch.frames.drain(..) {
            net.wire.down(frame);
        }
        pump_reads(net, tracer, meters, conn)?;
        healthy &= conn.response.read == conn.response.sent;
        if let Some(cong) = net.server.stack.congestion(conn.server) {
            meters.cwnd.record(cong.cwnd as u64);
        }
        Ok(healthy)
    }

    fn net(&self) -> &Net {
        &self.net
    }
}
