//! Replays that time single layers outside the stack.
//!
//! The stack exposes no hooks inside `receive`, so the traced run logs
//! what the measured receiver's demultiplexer saw — every lookup key with
//! the `RxResult::pcbs_examined` the stack reported, plus every insert and
//! remove the receive outcomes imply — and replays that log into a
//! replica of the default demultiplexer (`sequent(19)` over
//! `Multiplicative`). Every replayed lookup must examine exactly as many
//! PCBs as the stack did, or the run fails: that is what makes the
//! replica's timing a timing of the walk the stack performs.
//!
//! The same file replays sampled frames through the wire parsers and the
//! shard-steering hash.

use crate::measure::{Kind, Tracer};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tcpdemux_core::{Demux, PacketKind, SequentDemux};
use tcpdemux_hash::Multiplicative;
use tcpdemux_pcb::{ConnectionKey, PcbId};
use tcpdemux_stack::{steering_key, RxOutcome, RxResult, ShardedStack};
use tcpdemux_wire::{Ipv4Packet, Ipv4Repr, TcpRepr, TcpSegment};

/// One operation on the measured demultiplexer.
#[derive(Debug, Clone, Copy)]
enum DemuxOp {
    Insert(ConnectionKey),
    Remove(ConnectionKey),
    Lookup(ConnectionKey, PacketKind, u32),
}

/// Lookups logged after the traced phase starts; later ones are not
/// logged (the replay covers the prefix).
const TIMED_LOOKUP_CAP: usize = 300_000;

/// The measured demultiplexer's operation log.
#[derive(Debug, Default)]
pub struct DemuxLog {
    on: bool,
    ops: Vec<DemuxOp>,
    timed_from: Option<usize>,
    timed_lookups: usize,
    /// Connections parked in TIME-WAIT, oldest first; the stack reclaims
    /// them in that order as its clock passes their 2·MSL deadline.
    time_wait: VecDeque<ConnectionKey>,
}

impl DemuxLog {
    /// A log that records when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            ..Self::default()
        }
    }

    fn full(&self) -> bool {
        !self.on || self.timed_lookups >= TIMED_LOOKUP_CAP
    }

    /// Operations from here on are timed by the replay.
    pub fn start_timed(&mut self) {
        if self.on && self.timed_from.is_none() {
            self.timed_from = Some(self.ops.len());
        }
    }

    /// Log one lookup of `key` that examined `examined` PCBs.
    pub fn on_lookup(&mut self, key: ConnectionKey, kind: PacketKind, examined: u32) {
        if self.full() {
            return;
        }
        self.ops.push(DemuxOp::Lookup(key, kind, examined));
        if self.timed_from.is_some() {
            self.timed_lookups += 1;
        }
    }

    /// Log what one received TCP frame did to the demultiplexer.
    pub fn on_receive(&mut self, frame: &[u8], result: &RxResult) {
        if self.full() {
            return;
        }
        let Some(key) = steering_key(frame) else {
            return;
        };
        self.on_lookup(key, packet_kind(frame), result.pcbs_examined);
        match result.outcome {
            RxOutcome::NewConnection { .. } => self.ops.push(DemuxOp::Insert(key)),
            RxOutcome::Closed | RxOutcome::ResetReceived => self.ops.push(DemuxOp::Remove(key)),
            RxOutcome::TimeWait { .. } => self.time_wait.push_back(key),
            _ => {}
        }
    }

    /// Log the TIME-WAIT reclaims of one `advance_time` call.
    pub fn on_reclaimed(&mut self, reclaimed: usize) {
        if self.full() {
            return;
        }
        for _ in 0..reclaimed {
            let key = self
                .time_wait
                .pop_front()
                .expect("the stack reclaims only connections it parked");
            self.ops.push(DemuxOp::Remove(key));
        }
    }

    /// Replay the log into a fresh replica, timing everything after
    /// [`DemuxLog::start_timed`] into `tracer` (as free-standing span
    /// trees). Fails on the first lookup whose examined count differs
    /// from the stack's.
    /// Returns the number of lookups cross-checked.
    pub fn replay(&self, tracer: &mut Tracer) -> Result<u64, String> {
        let mut replica = SequentDemux::new(Multiplicative, 19);
        let timed_from = self.timed_from.unwrap_or(self.ops.len());
        let mut next_id = 0u64;
        let mut checked = 0u64;
        let mut i = 0;
        while i < self.ops.len() {
            let timed = i >= timed_from;
            match self.ops[i] {
                DemuxOp::Insert(key) => {
                    let id = PcbId::from_bits(next_id);
                    next_id += 1;
                    let start = tracer.now();
                    replica.insert(key, id);
                    let end = tracer.now();
                    if timed {
                        tracer.span(Kind::ReplayInsert, start, end, 1);
                    }
                    i += 1;
                }
                DemuxOp::Remove(key) => {
                    let start = tracer.now();
                    let removed = replica.remove(&key);
                    let end = tracer.now();
                    if removed.is_none() {
                        return Err(format!("replica: remove of absent key {key:?}"));
                    }
                    if timed {
                        tracer.span(Kind::ReplayRemove, start, end, 1);
                    }
                    i += 1;
                }
                DemuxOp::Lookup(..) => {
                    // A run of lookups stops at the first non-lookup, and
                    // at the start of the timed region.
                    let stop = if timed { self.ops.len() } else { timed_from };
                    let run_end = self.ops[i..stop]
                        .iter()
                        .position(|op| !matches!(op, DemuxOp::Lookup(..)))
                        .map_or(stop, |n| i + n);
                    let start = tracer.now();
                    let mut mismatch = None;
                    for (j, op) in self.ops[i..run_end].iter().enumerate() {
                        if let DemuxOp::Lookup(key, kind, examined) = *op {
                            let got = black_box(replica.lookup(black_box(&key), kind)).examined;
                            if got != examined && mismatch.is_none() {
                                mismatch = Some((i + j, examined, got));
                            }
                        }
                    }
                    let end = tracer.now();
                    if let Some((at, want, got)) = mismatch {
                        return Err(format!(
                            "replica lookup {at} examined {got} PCBs, the stack examined {want}"
                        ));
                    }
                    checked += (run_end - i) as u64;
                    if timed {
                        tracer.span(Kind::ReplayLookup, start, end, (run_end - i) as u64);
                    }
                    i = run_end;
                }
            }
        }
        Ok(checked)
    }
}

/// The stack's own classification of a TCP frame for the demultiplexer:
/// a pure ACK (no payload, no SYN/FIN/RST) is `Ack`, all else `Data`.
fn packet_kind(frame: &[u8]) -> PacketKind {
    let ihl = usize::from(frame[0] & 0x0f) * 4;
    let total = usize::from(u16::from_be_bytes([frame[2], frame[3]]));
    let offset = usize::from(frame[ihl + 12] >> 4) * 4;
    let flags = frame[ihl + 13];
    const FIN_SYN_RST: u8 = 0x07;
    const ACK: u8 = 0x10;
    if total == ihl + offset && flags & ACK != 0 && flags & FIN_SYN_RST == 0 {
        PacketKind::Ack
    } else {
        PacketKind::Data
    }
}

/// Copies of the first frames the measured receiver got in the traced
/// phase, for the parse and steering replays.
#[derive(Debug, Default)]
pub struct FrameSample {
    frames: Vec<Vec<u8>>,
    bytes: usize,
}

impl FrameSample {
    const MAX_FRAMES: usize = 4096;
    const MAX_BYTES: usize = 4 << 20;

    /// Keep a copy of `frame` while there is room.
    pub fn offer(&mut self, frame: &[u8]) {
        if self.frames.len() < Self::MAX_FRAMES && self.bytes + frame.len() <= Self::MAX_BYTES {
            self.bytes += frame.len();
            self.frames.push(frame.to_vec());
        }
    }

    /// Time IPv4 + TCP parsing (with both checksums) over the sample,
    /// pass after pass, for about `budget`. Fails if a frame the stack
    /// accepted does not parse.
    pub fn replay_parse(&self, tracer: &mut Tracer, budget: Duration) -> Result<(), String> {
        repeat_passes(&self.frames, tracer, Kind::ReplayParse, budget, |frame| {
            let packet = Ipv4Packet::new_checked(frame).map_err(|e| e.to_string())?;
            let ip = Ipv4Repr::parse(&packet).map_err(|e| e.to_string())?;
            let segment = TcpSegment::new_checked(packet.payload()).map_err(|e| e.to_string())?;
            let tcp =
                TcpRepr::parse(&segment, ip.src_addr, ip.dst_addr).map_err(|e| e.to_string())?;
            black_box(tcp);
            Ok(())
        })
    }

    /// Time `steering_key` + `ShardedStack::steer` over the sample.
    pub fn replay_steer(
        &self,
        stack: &ShardedStack,
        tracer: &mut Tracer,
        budget: Duration,
    ) -> Result<(), String> {
        repeat_passes(&self.frames, tracer, Kind::ReplaySteer, budget, |frame| {
            let key = steering_key(frame).ok_or("frame without a four-tuple")?;
            black_box(stack.steer(black_box(&key)));
            Ok(())
        })
    }
}

fn repeat_passes(
    frames: &[Vec<u8>],
    tracer: &mut Tracer,
    kind: Kind,
    budget: Duration,
    mut f: impl FnMut(&[u8]) -> Result<(), String>,
) -> Result<(), String> {
    if frames.is_empty() {
        return Ok(());
    }
    let began = Instant::now();
    loop {
        let start = tracer.now();
        for frame in frames {
            f(black_box(frame))?;
        }
        let end = tracer.now();
        tracer.span(kind, start, end, frames.len() as u64);
        if began.elapsed() >= budget {
            return Ok(());
        }
    }
}
