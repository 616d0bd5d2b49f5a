//! Structured events and the bounded ring buffer that traces them.

use core::fmt;

/// Why a connection left the demultiplexer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseCause {
    /// Normal close: the FIN exchange completed (or TIME-WAIT drained).
    Graceful,
    /// The peer reset the connection.
    Reset,
    /// The local application aborted it.
    LocalAbort,
    /// The retransmission budget ran out (the path went silent).
    Timeout,
}

impl CloseCause {
    /// Stable snake_case name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            CloseCause::Graceful => "graceful",
            CloseCause::Reset => "reset",
            CloseCause::LocalAbort => "local_abort",
            CloseCause::Timeout => "timeout",
        }
    }
}

/// One structured telemetry event.
///
/// Events are small and `Copy`; pushing one into the ring never
/// allocates. They carry the quantitative payload a debugging session
/// needs (examined counts, backoff state), not formatted text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A demultiplexer lookup found its PCB.
    DemuxHit {
        /// PCBs examined by this lookup.
        examined: u32,
        /// Whether a one-entry cache answered it.
        cache_hit: bool,
    },
    /// A demultiplexer lookup found nothing.
    DemuxMiss {
        /// PCBs examined before giving up.
        examined: u32,
    },
    /// A connection was inserted into the demultiplexer.
    ConnOpen,
    /// A connection was removed, with its cause.
    ConnClose {
        /// Why it closed.
        cause: CloseCause,
    },
    /// A queued segment was re-emitted after an RTO expiry.
    Retransmit {
        /// Consecutive expiries for this connection so far (1 = first).
        attempt: u32,
    },
    /// An RTO expiry backed the timer off.
    RtoBackoff {
        /// Consecutive expiries after this one.
        attempts: u32,
        /// The re-armed timeout, in stack ticks.
        rto_ticks: u64,
    },
    /// A connection exhausted its retransmission budget and was aborted.
    Timeout,
    /// Duplicate ACKs triggered re-emission of the oldest unacked
    /// segment without waiting for the RTO (fast retransmit, or a
    /// NewReno partial-ACK head re-emission).
    FastRetransmit {
        /// Duplicate ACKs counted when the retransmit fired (0 for a
        /// NewReno partial-ACK re-emission).
        dup_acks: u32,
    },
    /// The delayed-ACK machinery emitted a coalesced pure ACK (timer
    /// expiry or the every-N segment threshold).
    DelayedAck,
    /// A zero-window probe was sent against a closed peer window.
    ZeroWindowProbe,
    /// A transmit poll had queued data but the peer's advertised window
    /// was closed (rwnd, not cwnd, is the bottleneck).
    RwndStall,
}

impl Event {
    /// Stable snake_case kind tag used by both exporters.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::DemuxHit { .. } => "demux_hit",
            Event::DemuxMiss { .. } => "demux_miss",
            Event::ConnOpen => "conn_open",
            Event::ConnClose { .. } => "conn_close",
            Event::Retransmit { .. } => "retransmit",
            Event::RtoBackoff { .. } => "rto_backoff",
            Event::Timeout => "timeout",
            Event::FastRetransmit { .. } => "fast_retransmit",
            Event::DelayedAck => "delayed_ack",
            Event::ZeroWindowProbe => "zero_window_probe",
            Event::RwndStall => "rwnd_stall",
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Event::DemuxHit {
                examined,
                cache_hit,
            } => write!(f, "demux_hit examined={examined} cache_hit={cache_hit}"),
            Event::DemuxMiss { examined } => write!(f, "demux_miss examined={examined}"),
            Event::ConnOpen => f.write_str("conn_open"),
            Event::ConnClose { cause } => write!(f, "conn_close cause={}", cause.name()),
            Event::Retransmit { attempt } => write!(f, "retransmit attempt={attempt}"),
            Event::RtoBackoff {
                attempts,
                rto_ticks,
            } => write!(f, "rto_backoff attempts={attempts} rto_ticks={rto_ticks}"),
            Event::Timeout => f.write_str("timeout"),
            Event::FastRetransmit { dup_acks } => {
                write!(f, "fast_retransmit dup_acks={dup_acks}")
            }
            Event::DelayedAck => f.write_str("delayed_ack"),
            Event::ZeroWindowProbe => f.write_str("zero_window_probe"),
            Event::RwndStall => f.write_str("rwnd_stall"),
        }
    }
}

/// An [`Event`] plus its global sequence number (0-based, assigned in
/// recording order, never reused — so a trace that dropped its oldest
/// entries still shows exactly *which* events survive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqEvent {
    /// Position of this event in the full recorded stream.
    pub seq: u64,
    /// The event.
    pub event: Event,
}

/// A bounded ring of the most recent events.
///
/// Capacity is fixed at construction and fully pre-allocated; recording
/// into a full ring overwrites the oldest entry. The number of events
/// ever recorded is tracked so snapshots can report how many were
/// dropped.
#[derive(Debug, Clone)]
pub struct EventRing {
    /// Slot `i` holds the event with sequence `head - len + i` (oldest
    /// first, wrapped onto the pre-allocated buffer).
    buf: Vec<SeqEvent>,
    capacity: usize,
    /// Index of the next slot to write.
    write: usize,
    /// Total events ever recorded (= next sequence number).
    recorded: u64,
}

impl EventRing {
    /// An empty ring holding at most `capacity` events. A zero capacity
    /// discards everything (counters and histograms still work).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
            capacity,
            write: 0,
            recorded: 0,
        }
    }

    /// Record one event (overwrites the oldest if full; never allocates
    /// once the ring has filled).
    pub fn push(&mut self, event: Event) {
        let seq = self.recorded;
        self.recorded += 1;
        if self.capacity == 0 {
            return;
        }
        let entry = SeqEvent { seq, event };
        if self.buf.len() < self.capacity {
            self.buf.push(entry);
            self.write = self.buf.len() % self.capacity;
        } else {
            self.buf[self.write] = entry;
            self.write = (self.write + 1) % self.capacity;
        }
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events lost to overwriting.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.buf.len() as u64
    }

    /// The surviving events, oldest first.
    pub fn to_vec(&self) -> Vec<SeqEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        if self.buf.len() < self.capacity {
            out.extend_from_slice(&self.buf);
        } else {
            out.extend_from_slice(&self.buf[self.write..]);
            out.extend_from_slice(&self.buf[..self.write]);
        }
        out
    }

    /// Forget everything, keeping the allocation.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.write = 0;
        self.recorded = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpdemux_testprop::check;

    #[test]
    fn fills_then_overwrites_oldest() {
        let mut ring = EventRing::with_capacity(3);
        for attempt in 1..=5 {
            ring.push(Event::Retransmit { attempt });
        }
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.dropped(), 2);
        let events = ring.to_vec();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 2);
        assert_eq!(events[2].seq, 4);
        assert_eq!(events[2].event, Event::Retransmit { attempt: 5 });
    }

    #[test]
    fn partial_ring_keeps_order() {
        let mut ring = EventRing::with_capacity(8);
        ring.push(Event::ConnOpen);
        ring.push(Event::Timeout);
        let events = ring.to_vec();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].event, Event::ConnOpen);
        assert_eq!(events[1].event, Event::Timeout);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn zero_capacity_counts_but_stores_nothing() {
        let mut ring = EventRing::with_capacity(0);
        ring.push(Event::ConnOpen);
        ring.push(Event::Timeout);
        assert_eq!(ring.recorded(), 2);
        assert_eq!(ring.dropped(), 2);
        assert!(ring.to_vec().is_empty());
    }

    #[test]
    fn reset_forgets_everything() {
        let mut ring = EventRing::with_capacity(2);
        ring.push(Event::ConnOpen);
        ring.reset();
        assert_eq!(ring.recorded(), 0);
        assert!(ring.to_vec().is_empty());
        ring.push(Event::Timeout);
        assert_eq!(ring.to_vec()[0].seq, 0);
    }

    /// Whatever the capacity and stream length, the ring holds the last
    /// `min(len, capacity)` events with consecutive sequence numbers
    /// ending at `len - 1`.
    #[test]
    fn prop_ring_keeps_exactly_the_tail() {
        check("event_ring_prop_tail", |rng| {
            let capacity = rng.usize_in(0, 16);
            let n = rng.usize_in(0, 64);
            let mut ring = EventRing::with_capacity(capacity);
            for i in 0..n {
                ring.push(Event::Retransmit {
                    attempt: i as u32 + 1,
                });
            }
            let events = ring.to_vec();
            assert_eq!(events.len(), n.min(capacity));
            assert_eq!(ring.recorded(), n as u64);
            for (offset, entry) in events.iter().enumerate() {
                let expect_seq = (n - events.len() + offset) as u64;
                assert_eq!(entry.seq, expect_seq);
                assert_eq!(
                    entry.event,
                    Event::Retransmit {
                        attempt: expect_seq as u32 + 1
                    }
                );
            }
        });
    }
}
