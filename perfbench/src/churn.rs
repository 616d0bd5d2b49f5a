//! `churn`: whole connection lifetimes beside a resident idle population.
//!
//! A server `Stack` with TIME-WAIT enabled holds 2,000 idle established
//! connections. Each operation opens a fresh connection (three-way
//! handshake), carries a 128 B request and a 256 B response, and closes
//! it server-first with a FIN exchange, so the server parks it in
//! TIME-WAIT until its 2·MSL timer reclaims it. The operation ends with
//! one stray segment: a copy of the client FIN of an earlier operation
//! whose four-tuple has already been reclaimed — a demultiplexer miss
//! that the server answers with an RST. The demultiplexer sees inserts,
//! removes and misses beside lookups, and the listener and timer-wheel
//! paths run on every operation. Four-tuples come from a seeded full
//! cycle and are never reused within 2·MSL (checked).

use crate::measure::Tracer;
use crate::pattern::{Pattern, Rng, Stream};
use crate::{client_addr, fatal, Fatal, Meters, Net, Serial, Side, SERVER};
use std::collections::VecDeque;
use tcpdemux_stack::{RxOutcome, StackConfig, TxScratch};

const REQUEST: usize = 128;
const RESPONSE: usize = 256;
/// First client port of the churning four-tuples.
const PORT_BASE: u16 = 20_000;

/// Idle established connections, and the hosts they come from.
const IDLE: usize = 2_000;
const IDLE_HOSTS: usize = 8;
/// Hosts of the churning connections, and client ports per host.
const HOSTS: usize = 4;
const PORTS: usize = 40_000;
/// 2·MSL in ticks; the driver advances one tick per operation.
const TIME_WAIT: u64 = 1_000;
/// How many operations back the stray segment's four-tuple was used.
const STRAY_LAG: usize = 2_000;

/// The `churn` workload.
pub struct Churn {
    net: Net,
    pattern: Pattern,
    /// Four-tuple `t` of operation `n` is `(offset + n·stride) mod cycle`.
    stride: u64,
    offset: u64,
    /// Tick each four-tuple was last opened at.
    last_open: Vec<u64>,
    /// Client FINs of recent operations, oldest first.
    strays: VecDeque<Vec<u8>>,
    tick: u64,
    scratch: TxScratch,
    buf: Vec<u8>,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl Serial for Churn {
    const NAME: &'static str = "churn";

    const WARMUP_OPS: u64 = 3_000;

    fn setup(seed: u64, meters: &mut Meters) -> Result<Self, Fatal> {
        let mut addrs: Vec<_> = (0..IDLE_HOSTS).map(|h| client_addr(2, h)).collect();
        addrs.extend((0..HOSTS).map(|h| client_addr(3, h)));
        let config = StackConfig::new(SERVER).with_time_wait(TIME_WAIT);
        let mut net = Net::new(config, &addrs)?;
        let mut off = Tracer::new(false, std::time::Instant::now());
        for i in 0..IDLE {
            net.handshake(i % IDLE_HOSTS, None, &mut off, meters)?;
        }
        let cycle = (HOSTS * PORTS) as u64;
        let mut rng = Rng::new(seed);
        let stride = loop {
            let s = cycle / 3 + rng.below(cycle / 3);
            if gcd(s, cycle) == 1 {
                break s;
            }
        };
        Ok(Self {
            net,
            pattern: Pattern::new(seed),
            stride,
            offset: rng.below(cycle),
            last_open: vec![u64::MAX; cycle as usize],
            strays: VecDeque::with_capacity(STRAY_LAG + 1),
            tick: 0,
            scratch: TxScratch::new(),
            buf: vec![0; RESPONSE],
        })
    }

    fn op(&mut self, n: u64, tracer: &mut Tracer, meters: &mut Meters) -> Result<bool, Fatal> {
        let cycle = self.last_open.len() as u64;
        let t = ((self.offset + n % cycle * self.stride) % cycle) as usize;
        let host = IDLE_HOSTS + t / PORTS;
        let port = PORT_BASE + (t % PORTS) as u16;
        self.tick += 1;
        let last = self.last_open[t];
        if last != u64::MAX && self.tick - last <= TIME_WAIT {
            fatal!("four-tuple {t} reused within 2·MSL");
        }
        self.last_open[t] = self.tick;
        let Churn {
            net,
            pattern,
            strays,
            tick,
            scratch,
            buf,
            ..
        } = self;
        let mut healthy = true;
        for advance in [
            net.server.advance(*tick, tracer, meters),
            net.clients[host].advance(*tick, tracer, meters),
        ] {
            healthy &= advance.aborted.is_empty() && advance.retransmits.is_empty();
        }

        let (client, server) = net.handshake(host, Some(port), tracer, meters)?;
        let mut request = Stream::new(pattern, 2 * n);
        let mut response = Stream::new(pattern, 2 * n + 1);
        let mut exchange = |net: &mut Net,
                            from_server: bool,
                            stream: &mut Stream,
                            len: usize,
                            tracer: &mut Tracer,
                            meters: &mut Meters|
         -> Result<(), Fatal> {
            let data = pattern.slice(stream.base, 0, len);
            let (sender, pcb) = if from_server {
                (&mut net.server, server)
            } else {
                (&mut net.clients[host], client)
            };
            stream.sent += sender.send(pcb, data, tracer)? as u64;
            sender.poll(scratch, tracer);
            for frame in scratch.frames.drain(..) {
                if from_server {
                    net.wire.down(frame);
                } else {
                    net.wire.up(frame);
                }
            }
            net.pump(tracer, meters, |host, side, r, tracer, meters| {
                let RxOutcome::Delivered { pcb, .. } = r.outcome else {
                    return Ok(());
                };
                let expect = match side {
                    Side::Server => server,
                    Side::Client(_) => client,
                };
                if pcb != expect || matches!(side, Side::Server) == from_server {
                    fatal!("data delivered to another connection than the operation's");
                }
                let n = host.read(pcb, buf, tracer)?;
                stream
                    .verify(pattern, &buf[..n])
                    .map_err(|at| Fatal(format!("corrupted byte at stream offset {at}")))?;
                meters.verified += n as u64;
                Ok(())
            })
        };
        exchange(net, false, &mut request, REQUEST, tracer, meters)?;
        exchange(net, true, &mut response, RESPONSE, tracer, meters)?;
        healthy &= request.read == REQUEST as u64 && response.read == RESPONSE as u64;

        if let Some(cong) = net.server.stack.congestion(server) {
            meters.cwnd.record(cong.cwnd as u64);
        }

        // Server closes first and ends in TIME-WAIT; the client follows.
        let fin = net.server.stack.close(server)?;
        net.wire.down(fin);
        net.pump(tracer, meters, |_, _, _, _, _| Ok(()))?;
        let fin = net.clients[host].stack.close(client)?;
        strays.push_back(fin.clone());
        net.wire.up(fin);
        let mut parked = false;
        net.pump(tracer, meters, |_, side, r, _, _| {
            if let (Side::Server, RxOutcome::TimeWait { pcb }) = (side, r.outcome) {
                parked = pcb == server;
            }
            Ok(())
        })?;
        healthy &= parked;

        // A stray segment for a four-tuple reclaimed long ago: a miss.
        if strays.len() > STRAY_LAG {
            let stray = strays.pop_front().expect("queue is longer than the lag");
            let r = net.server.receive_measured(&stray, tracer, meters)?;
            if !matches!(r.outcome, RxOutcome::ResetSent) || r.replies.len() != 1 {
                fatal!("stray segment got {:?}, not an RST", r.outcome);
            }
            for rst in r.replies {
                net.server.stack.recycle(rst);
            }
        }
        Ok(healthy)
    }

    fn net(&self) -> &Net {
        &self.net
    }
}
