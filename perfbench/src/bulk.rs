//! `bulk`: two byte-verified streams of 64 KiB writes over a lossy link.
//!
//! Two `Stack`s share two connections. Each operation is one 64 KiB
//! application write on one connection (alternating), carried in MSS
//! 1,460 B segments under the default windowed NewReno sender, through
//! seeded fault injectors that drop 1 % of frames in each direction, and
//! read and verified by the receiving application. The data receiver is
//! the measured receiver. Loss recovery runs on virtual time: when the
//! wire falls silent with data outstanding, the driver advances both
//! stacks' clocks to the next timer deadline.

use crate::measure::Tracer;
use crate::pattern::{mix, Pattern, Stream};
use crate::{client_addr, fatal, Fatal, Meters, Net, Serial, Side, SERVER};
use tcpdemux_pcb::PcbId;
use tcpdemux_stack::{FaultInjector, RxOutcome, StackConfig, TimeAdvance, TxScratch};

const WRITE: usize = 64 * 1024;
const CONNECTIONS: usize = 2;
const DROP: f64 = 0.01;
/// Virtual ticks an operation may spend before it counts as failed.
const STALL_TICKS: u64 = 1_000_000;

struct Conn {
    sender: PcbId,
    receiver: PcbId,
    stream: Stream,
}

/// The `bulk` workload.
pub struct Bulk {
    net: Net,
    conns: Vec<Conn>,
    pattern: Pattern,
    tick: u64,
    scratch: TxScratch,
    buf: Vec<u8>,
}

impl Bulk {
    fn on_advance(&mut self, advance: TimeAdvance, to_server: bool) -> bool {
        for frame in advance.retransmits.into_iter().chain(advance.acks) {
            if to_server {
                self.net.wire.up(frame);
            } else {
                self.net.wire.down(frame);
            }
        }
        advance.aborted.is_empty()
    }
}

impl Serial for Bulk {
    const NAME: &'static str = "bulk";

    const WARMUP_OPS: u64 = 40;

    fn setup(seed: u64, meters: &mut Meters) -> Result<Self, Fatal> {
        let mut net = Net::new(StackConfig::new(SERVER), &[client_addr(1, 0)])?;
        let pattern = Pattern::new(seed);
        let mut off = Tracer::new(false, std::time::Instant::now());
        let mut conns = Vec::new();
        for i in 0..CONNECTIONS {
            let (sender, receiver) = net.handshake(0, None, &mut off, meters)?;
            conns.push(Conn {
                sender,
                receiver,
                stream: Stream::new(&pattern, i as u64),
            });
        }
        net.wire.set_faults(
            FaultInjector::new(DROP, 0.0, mix(seed ^ 0x7570)),
            FaultInjector::new(DROP, 0.0, mix(seed ^ 0x646f_776e)),
        );
        Ok(Self {
            net,
            conns,
            pattern,
            tick: 0,
            scratch: TxScratch::new(),
            buf: vec![0; WRITE],
        })
    }

    fn op(&mut self, n: u64, tracer: &mut Tracer, meters: &mut Meters) -> Result<bool, Fatal> {
        let c = (n % CONNECTIONS as u64) as usize;
        self.tick += 1;
        let began = self.tick;
        let mut healthy = true;
        let a = self.net.server.advance(self.tick, tracer, meters);
        healthy &= self.on_advance(a, false);
        let a = self.net.clients[0].advance(self.tick, tracer, meters);
        healthy &= self.on_advance(a, true);

        let conn = &mut self.conns[c];
        let data = self
            .pattern
            .slice(conn.stream.base, conn.stream.sent, WRITE);
        let accepted = self.net.clients[0].send(conn.sender, data, tracer)?;
        if accepted != WRITE {
            fatal!(
                "send buffer took {accepted} of {WRITE} bytes with the previous write delivered"
            );
        }
        conn.stream.sent += WRITE as u64;
        let target = conn.stream.sent;

        while self.conns[c].stream.read < target && healthy {
            let Bulk {
                net,
                conns,
                pattern,
                scratch,
                buf,
                ..
            } = self;
            net.clients[0].poll(scratch, tracer);
            for frame in scratch.frames.drain(..) {
                net.wire.up(frame);
            }
            if net.wire.to_server.is_empty() && net.wire.to_client.is_empty() {
                // The wire is silent with data outstanding: jump the
                // clocks to the next timer deadline (an RTO).
                let deadline = [
                    net.server.stack.next_timer_deadline(),
                    net.clients[0].stack.next_timer_deadline(),
                ]
                .into_iter()
                .flatten()
                .min();
                let Some(deadline) = deadline else {
                    fatal!("transfer stalled with no timer armed");
                };
                self.tick = self.tick.max(deadline);
                if self.tick - began > STALL_TICKS {
                    healthy = false;
                    break;
                }
                let a = self.net.server.advance(self.tick, tracer, meters);
                healthy &= self.on_advance(a, false);
                let a = self.net.clients[0].advance(self.tick, tracer, meters);
                healthy &= self.on_advance(a, true);
                continue;
            }
            net.pump(tracer, meters, |host, side, r, tracer, meters| {
                let (Side::Server, RxOutcome::Delivered { pcb, .. }) = (side, r.outcome) else {
                    return Ok(());
                };
                let Some(conn) = conns.iter_mut().find(|k| k.receiver == pcb) else {
                    fatal!("data delivered to an unknown connection");
                };
                let n = host.read(pcb, buf, tracer)?;
                conn.stream
                    .verify(pattern, &buf[..n])
                    .map_err(|at| Fatal(format!("corrupted byte at stream offset {at}")))?;
                meters.verified += n as u64;
                Ok(())
            })?;
        }
        let conn = &self.conns[c];
        if let Some(cong) = self.net.clients[0].stack.congestion(conn.sender) {
            meters.cwnd.record(cong.cwnd as u64);
        }
        Ok(healthy && conn.stream.read == target)
    }

    fn net(&self) -> &Net {
        &self.net
    }
}
