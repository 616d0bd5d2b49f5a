//! The receive path itself.

use crate::shard::ShardId;
use crate::socket::{SocketBuffer, SocketError};
use crate::stats::{StackStats, StatsSnapshot};
use crate::timer::TimerId;
use crate::txpool::TxPool;
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::Ipv4Addr;
use std::sync::Arc;
use tcpdemux_core::{Demux, LookupResult, PacketKind, SequentDemux};
use tcpdemux_hash::Multiplicative;
use tcpdemux_pcb::{
    CcAction, CongestionControl, CongestionState, ConnectionKey, ListenKey, NewReno, Pcb, PcbArena,
    PcbId, RttEstimator, SendBuffer, SeqNum, TcpEvent, TcpState,
};
use tcpdemux_telemetry::{CloseCause, Event, HistogramId, Recorder};
use tcpdemux_wire::{
    build_tcp_frame_into, build_udp_frame_into, IpProtocol, Ipv4Packet, Ipv4Repr, TcpFlags,
    TcpRepr, TcpSegment, UdpDatagram, UdpRepr, WireError,
};

/// Microseconds per stack timer tick (the stack's tick is 1 ms; the RTT
/// estimator works in microseconds).
const US_PER_TICK: u64 = 1_000;

/// Stack-level (non-wire) errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackError {
    /// The port already has a listener.
    PortInUse(u16),
    /// The PCB handle does not resolve (closed or never existed).
    NoSuchConnection,
    /// The operation requires an established connection.
    NotEstablished,
    /// All ephemeral ports are in use (practically unreachable).
    NoEphemeralPorts,
    /// The state machine refused the operation in the current state.
    InvalidState(TcpState),
}

impl core::fmt::Display for StackError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StackError::PortInUse(p) => write!(f, "port {p} already in use"),
            StackError::NoSuchConnection => write!(f, "no such connection"),
            StackError::NotEstablished => write!(f, "connection not established"),
            StackError::NoEphemeralPorts => write!(f, "ephemeral ports exhausted"),
            StackError::InvalidState(s) => write!(f, "invalid in state {s}"),
        }
    }
}

impl std::error::Error for StackError {}

/// What happened to a received frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxOutcome {
    /// Payload bytes were delivered to a socket.
    Delivered {
        /// The connection.
        pcb: PcbId,
        /// Bytes delivered.
        bytes: usize,
    },
    /// A UDP datagram was delivered to an unconnected bound socket (no
    /// PCB involved — the wildcard path).
    DeliveredUnconnected {
        /// Bytes delivered.
        bytes: usize,
    },
    /// A pure acknowledgement was processed.
    AckProcessed {
        /// The connection.
        pcb: PcbId,
    },
    /// A handshake completed; the connection is now established.
    Established {
        /// The connection.
        pcb: PcbId,
    },
    /// A listener accepted a SYN; a SYN-ACK is in `replies`.
    NewConnection {
        /// The embryonic connection (SYN-RECEIVED).
        pcb: PcbId,
    },
    /// The peer sent FIN; its direction of the stream is closed.
    PeerClosed {
        /// The connection.
        pcb: PcbId,
    },
    /// The connection finished closing and was reclaimed.
    Closed,
    /// The connection entered TIME-WAIT and is draining (2·MSL timer
    /// scheduled; see [`StackConfig::time_wait_ticks`]).
    TimeWait {
        /// The draining connection.
        pcb: PcbId,
    },
    /// The segment matched nothing. An RST is in `replies`, unless the
    /// segment was itself an RST: then `replies` is empty and it is counted
    /// in [`StackStats::unmatched_resets`](crate::StackStats::unmatched_resets).
    ResetSent,
    /// The peer reset the connection; it was reclaimed.
    ResetReceived,
    /// Out-of-order or duplicate segment; dropped and re-acknowledged.
    Duplicate {
        /// The connection.
        pcb: PcbId,
    },
    /// The frame was addressed to some other host.
    NotForUs,
    /// The frame carried a protocol this stack does not implement.
    UnhandledProtocol,
    /// A UDP datagram arrived for a port with no socket; an ICMP
    /// port-unreachable is in `replies` (RFC 1122).
    UdpUnreachable,
    /// An ICMP echo request was answered; the reply is in `replies`.
    EchoReplied,
    /// Another ICMP message was received and counted.
    IcmpProcessed,
    /// An ARP request for our address was answered; the reply is in
    /// `replies`.
    ArpReplied,
    /// An ARP message was processed (mapping learned, no reply owed).
    ArpProcessed,
    /// A SYN arrived for a listener whose backlog is full; it was
    /// dropped silently (the client will retransmit).
    SynDropped,
}

/// The result of one received frame: what happened, any frames to send
/// in response, and the demultiplexing cost incurred.
#[derive(Debug, Clone)]
pub struct RxResult {
    /// Classification of the received frame.
    pub outcome: RxOutcome,
    /// Reply frames (ACKs, SYN-ACKs, RSTs) ready for transmission.
    pub replies: Vec<Vec<u8>>,
    /// PCBs examined by the lookup for this frame (the paper's metric).
    pub pcbs_examined: u32,
}

/// The result of one [`Stack::receive_batch`] call.
///
/// `results` holds one entry per input frame, in order, each what
/// [`Stack::receive`] returned for that frame.
#[derive(Debug, Default)]
pub struct BatchRxResult {
    /// Per-frame outcomes, in input order.
    pub results: Vec<Result<RxResult, WireError>>,
    /// Always 0: every frame gets exactly one lookup, so nothing is
    /// re-looked-up. Kept only for readers of the benchmark's
    /// `runtime.relookup_ratio`; it goes when that metric does.
    pub relookups: usize,
}

/// What one [`Stack::advance_time`] call did.
#[derive(Debug, Default)]
pub struct TimeAdvance {
    /// Connections reclaimed by the 2·MSL TIME-WAIT timer.
    pub reclaimed: usize,
    /// Frames to (re)transmit: every queued unacknowledged segment of
    /// every connection whose retransmission timer expired, rebuilt with
    /// the current acknowledgement state. The caller puts them on the
    /// wire exactly like `send`/`receive` output (and may [`Stack::recycle`]
    /// them afterwards).
    pub retransmits: Vec<Vec<u8>>,
    /// Pure ACK frames emitted by delayed-ACK timers that expired during
    /// this advance; the caller transmits them like any reply frame.
    pub acks: Vec<Vec<u8>>,
    /// How many delayed ACKs fired (== `acks.len()`, kept as a counter so
    /// drivers that drain `acks` can still aggregate).
    pub acks_sent: u64,
    /// Zero-window probe re-emissions fired by the persist timer during
    /// this advance (the frames themselves ride in `retransmits`).
    pub zero_window_probes: u64,
    /// Connections aborted because their retransmission budget ran out.
    /// Each one's socket survives with [`SocketError::TimedOut`] set (and
    /// any already-delivered bytes still readable) until the application
    /// reaps it via [`Stack::release_socket`].
    pub aborted: Vec<PcbId>,
}

/// Payloads carried by the stack's timer wheel.
#[derive(Debug, Clone, Copy)]
enum TimerEvent {
    /// The 2·MSL TIME-WAIT drain for a parked connection.
    TimeWait(PcbId, ConnectionKey),
    /// The retransmission timeout for a connection with unacked segments.
    Retransmit(PcbId, ConnectionKey),
    /// A delayed acknowledgement owed on a connection came due.
    DelayedAck(PcbId, ConnectionKey),
}

/// One transmitted, not-yet-acknowledged segment, kept until the peer's
/// cumulative ACK passes `end`. Frames are not stored — a retransmission
/// rebuilds the segment with the *current* ack/window state, as a real
/// stack does — only the payload bytes are, in a buffer borrowed from the
/// [`TxPool`] so steady-state tracking allocates nothing.
#[derive(Debug)]
struct InflightSegment {
    /// First sequence number the segment occupies.
    seq: SeqNum,
    /// One past the last occupied sequence number; the segment is
    /// acknowledged once SND.UNA reaches this.
    end: SeqNum,
    flags: TcpFlags,
    /// MSS option to carry on rebuild (SYN/SYN-ACK segments).
    mss: Option<u16>,
    payload: Vec<u8>,
    /// Stack tick at which the segment was first transmitted.
    sent_at: u64,
    /// Karn's rule: once set, an ACK covering this segment is ambiguous
    /// and must not produce an RTT sample.
    retransmitted: bool,
    /// Zero-window probe: its RTO re-emissions are the persist timer and
    /// never count against the retry budget (a closed window is not a
    /// dead path).
    probe: bool,
}

/// The per-connection retransmission queue and its armed timer.
#[derive(Debug, Default)]
struct RetxQueue {
    segments: VecDeque<InflightSegment>,
    timer: Option<TimerId>,
}

/// Per-connection delayed-ACK bookkeeping (only populated when
/// [`WindowConfig::delayed_ack_ticks`] is set).
#[derive(Debug, Default)]
struct DelayedAckState {
    /// In-order data segments received and not yet acknowledged.
    pending: u32,
    /// The armed ack timer, if any.
    timer: Option<TimerId>,
}

/// How a [`StackConfig`] builds each stack's demultiplexer. A *factory*
/// rather than a boxed instance because [`ShardedStack`] builds one
/// independent demux per shard from a single config.
///
/// [`ShardedStack`]: crate::ShardedStack
pub type DemuxFactory = Arc<dyn Fn() -> Box<dyn Demux> + Send + Sync>;

/// How a [`StackConfig`] builds each stack's congestion controller (one
/// per stack; the controller itself is stateless — per-connection state
/// lives in each PCB's [`CongestionState`]).
pub type CcFactory = Arc<dyn Fn() -> Box<dyn CongestionControl> + Send + Sync>;

/// Window, buffering, and congestion-control parameters, folded into
/// [`StackConfig`] via [`StackConfig::with_window`]. A bare `u16`
/// converts (`config.with_window(1024)`) and sets only the advertised
/// receive window, keeping the pre-windowed call sites working.
#[derive(Clone)]
pub struct WindowConfig {
    /// Upper bound on the receive window advertised to the peer. The
    /// *actual* advertisement shrinks as delivered-but-unread bytes pile
    /// up in the socket (`min(advertise, recv_buffer − occupancy)`).
    pub advertise: u16,
    /// Per-connection send-buffer capacity in bytes; [`Stack::send`]
    /// accepts at most this much un-transmitted data.
    pub send_buffer: usize,
    /// Receive-side cap: delivered-but-unread bytes beyond this are
    /// dropped (and re-ACKed) instead of buffered without bound.
    pub recv_buffer: usize,
    /// Delayed-ACK timer in ticks. `None` acknowledges every in-order
    /// data segment immediately (the pre-delayed-ACK behavior);
    /// `Some(t)` coalesces ACKs until `ack_every` segments or `t` ticks.
    pub delayed_ack_ticks: Option<u64>,
    /// With delayed ACKs on, acknowledge immediately every N-th unacked
    /// data segment (RFC 1122 recommends 2).
    pub ack_every: u32,
    /// Initial congestion window in bytes (RFC 5681 allows up to 4·MSS).
    pub initial_cwnd: usize,
    /// Builds the congestion controller (Reno, NewReno, …).
    cc: CcFactory,
}

impl core::fmt::Debug for WindowConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("WindowConfig")
            .field("advertise", &self.advertise)
            .field("send_buffer", &self.send_buffer)
            .field("recv_buffer", &self.recv_buffer)
            .field("delayed_ack_ticks", &self.delayed_ack_ticks)
            .field("ack_every", &self.ack_every)
            .field("initial_cwnd", &self.initial_cwnd)
            .finish_non_exhaustive()
    }
}

impl Default for WindowConfig {
    fn default() -> Self {
        Self {
            advertise: 8760,
            send_buffer: 256 * 1024,
            recv_buffer: 64 * 1024,
            delayed_ack_ticks: None,
            ack_every: 2,
            initial_cwnd: 4 * 1460,
            cc: Arc::new(|| Box::new(NewReno)),
        }
    }
}

impl WindowConfig {
    /// Advertise at most `advertise` bytes of receive window.
    pub fn with_advertise(mut self, advertise: u16) -> Self {
        self.advertise = advertise;
        self
    }

    /// Cap each connection's send buffer at `bytes`.
    pub fn with_send_buffer(mut self, bytes: usize) -> Self {
        self.send_buffer = bytes;
        self
    }

    /// Cap each connection's receive-side buffering at `bytes`.
    pub fn with_recv_buffer(mut self, bytes: usize) -> Self {
        self.recv_buffer = bytes;
        self
    }

    /// Delay ACKs up to `ticks`, coalescing every
    /// [`ack_every`](Self::ack_every)-th data segment.
    pub fn with_delayed_ack(mut self, ticks: u64) -> Self {
        self.delayed_ack_ticks = Some(ticks);
        self
    }

    /// Acknowledge immediately every `n`-th unacked data segment when
    /// delayed ACKs are on.
    pub fn with_ack_every(mut self, n: u32) -> Self {
        self.ack_every = n.max(1);
        self
    }

    /// Start each connection's congestion window at `bytes`.
    pub fn with_initial_cwnd(mut self, bytes: usize) -> Self {
        self.initial_cwnd = bytes;
        self
    }

    /// Use `factory` to build the congestion controller (e.g.
    /// `|| Box::new(Reno)`).
    pub fn with_congestion_control(
        mut self,
        factory: impl Fn() -> Box<dyn CongestionControl> + Send + Sync + 'static,
    ) -> Self {
        self.cc = Arc::new(factory);
        self
    }

    /// Build one congestion controller from the configured factory.
    pub(crate) fn build_cc(&self) -> Box<dyn CongestionControl> {
        (self.cc)()
    }
}

impl From<u16> for WindowConfig {
    fn from(advertise: u16) -> Self {
        Self::default().with_advertise(advertise)
    }
}

/// Reusable scratch for [`Stack::poll_transmit`]: the frames the stack
/// wants on the wire this poll. Cleared on entry to each poll; keep one
/// per driver loop so steady-state polling reuses its capacity.
#[derive(Debug, Default)]
pub struct TxScratch {
    /// Frames to transmit, in emission order.
    pub frames: Vec<Vec<u8>>,
}

impl TxScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Stack construction parameters — the *one* construction path for both
/// a single [`Stack`] ([`Stack::with_config`]) and a K-shard
/// [`ShardedStack`](crate::ShardedStack). Carries everything a stack
/// needs, including its demultiplexer factory, its telemetry
/// [`Recorder`], and the typed [`ShardId`] it reports in introspection
/// rows.
#[derive(Clone)]
pub struct StackConfig {
    /// This host's IPv4 address.
    pub local_addr: Ipv4Addr,
    /// Window, buffering, and congestion-control parameters.
    pub window: WindowConfig,
    /// MSS advertised in SYN segments.
    pub mss: u16,
    /// First ephemeral port for active opens.
    pub ephemeral_base: u16,
    /// Maximum number of times any one segment is retransmitted before
    /// the connection is aborted with [`SocketError::TimedOut`]
    /// (BSD's `TCP_MAXRXTSHIFT` spirit; RFC 1122 §4.2.3.5's R2).
    pub max_retries: u32,
    /// TIME-WAIT duration in timer ticks (the 2·MSL drain). `None`
    /// reclaims the connection as soon as it reaches TIME-WAIT — the
    /// timer-free model convenient for simulations that never reuse a
    /// four-tuple. `Some(n)` keeps the PCB resident (re-acking stray
    /// FINs, refusing key reuse) until [`Stack::advance_time`] passes
    /// `n` ticks.
    pub time_wait_ticks: Option<u64>,
    /// Which shard this stack is, for introspection rows; a standalone
    /// stack is shard 0. [`ShardedStack`](crate::ShardedStack) overrides
    /// this per shard.
    pub shard: ShardId,
    /// Capacity of each shard's ingress SPSC ring (frames); unused by a
    /// standalone [`Stack`], which has no ingress queue.
    pub ring_capacity: usize,
    /// Telemetry destination; `None` means a private recorder.
    recorder: Option<Recorder>,
    /// Builds the demultiplexer (one per shard).
    demux: DemuxFactory,
}

impl core::fmt::Debug for StackConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StackConfig")
            .field("local_addr", &self.local_addr)
            .field("window", &self.window)
            .field("mss", &self.mss)
            .field("ephemeral_base", &self.ephemeral_base)
            .field("max_retries", &self.max_retries)
            .field("time_wait_ticks", &self.time_wait_ticks)
            .field("shard", &self.shard)
            .field("ring_capacity", &self.ring_capacity)
            .field("recorder", &self.recorder.is_some())
            .finish_non_exhaustive()
    }
}

impl StackConfig {
    /// Defaults appropriate for tests and simulation: the paper's default
    /// hashed demultiplexer (`sequent(19)` over [`Multiplicative`]), a
    /// private recorder, shard 0.
    pub fn new(local_addr: Ipv4Addr) -> Self {
        Self {
            local_addr,
            window: WindowConfig::default(),
            mss: 1460,
            ephemeral_base: 49152,
            max_retries: 8,
            time_wait_ticks: None,
            shard: ShardId::default(),
            ring_capacity: 1024,
            recorder: None,
            demux: Arc::new(|| Box::new(SequentDemux::new(Multiplicative, 19))),
        }
    }

    /// Use `factory` to build this stack's demultiplexer (per shard, for
    /// a sharded runtime).
    pub fn with_demux(
        mut self,
        factory: impl Fn() -> Box<dyn Demux> + Send + Sync + 'static,
    ) -> Self {
        self.demux = Arc::new(factory);
        self
    }

    /// Wrap whatever demultiplexer the current factory builds in a
    /// [`FrontDemux`] fingerprint front filter, so table misses are
    /// rejected from a cache-resident structure before any PCB chain is
    /// walked. Composes with [`StackConfig::with_demux`] in either
    /// order relative to other settings; call it last if both are used.
    ///
    /// [`FrontDemux`]: tcpdemux_core::FrontDemux
    pub fn with_front_filter(mut self) -> Self {
        let inner = Arc::clone(&self.demux);
        self.demux = Arc::new(move || Box::new(tcpdemux_core::FrontDemux::new(inner())));
        self
    }

    /// Send telemetry to `recorder` (e.g. one shared with a bench harness
    /// or suite entry) instead of a private one.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Tag this stack as `shard` in introspection rows.
    pub fn with_shard(mut self, shard: ShardId) -> Self {
        self.shard = shard;
        self
    }

    /// Size each ingress SPSC ring at `capacity` frames (sharded runtime
    /// only).
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }

    /// Build one demultiplexer instance from the configured factory.
    pub(crate) fn build_demux(&self) -> Box<dyn Demux> {
        (self.demux)()
    }

    /// The configured recorder, if any.
    pub(crate) fn recorder(&self) -> Option<Recorder> {
        self.recorder.clone()
    }

    /// Abort a connection after `max_retries` retransmissions of the same
    /// segment go unacknowledged.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Enable real TIME-WAIT handling with the given duration in ticks.
    pub fn with_time_wait(mut self, ticks: u64) -> Self {
        self.time_wait_ticks = Some(ticks);
        self
    }

    /// Use a different local address (overriding the one given to `new`).
    pub fn with_local_addr(mut self, addr: Ipv4Addr) -> Self {
        self.local_addr = addr;
        self
    }

    /// Set the window/buffering/congestion parameters. Accepts a full
    /// [`WindowConfig`] or a bare `u16` advertised receive window.
    pub fn with_window(mut self, window: impl Into<WindowConfig>) -> Self {
        self.window = window.into();
        self
    }

    /// Advertise `mss` in SYN segments (and cap the peer's).
    pub fn with_mss(mut self, mss: u16) -> Self {
        self.mss = mss;
        self
    }

    /// Allocate ephemeral ports for active opens starting at `base`.
    pub fn with_ephemeral_base(mut self, base: u16) -> Self {
        self.ephemeral_base = base;
        self
    }
}

/// One row of [`Stack::connection_table`]: a live connection's key,
/// state, and queue/loss-recovery depths — the structured replacement for
/// parsing a `netstat` text dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionInfo {
    /// The shard owning this connection (shard 0 for a plain [`Stack`]).
    pub shard: ShardId,
    /// The connection's four-tuple.
    pub key: ConnectionKey,
    /// Current TCP state.
    pub state: TcpState,
    /// Bytes delivered to the socket and not yet read by the application.
    pub rx_queued: usize,
    /// Payload bytes sitting on the retransmission queue (sent, not yet
    /// cumulatively acknowledged).
    pub tx_queued: usize,
    /// Segments on the retransmission queue (includes zero-payload SYN,
    /// SYN-ACK, and FIN segments, which occupy sequence space).
    pub inflight_segments: usize,
    /// Consecutive RTO expiries without forward progress (0 = healthy).
    pub rto_attempts: u32,
}

impl core::fmt::Display for ConnectionInfo {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "tcp  {:<4} {:<28} {:<24} {} rxq={} txq={} rto_attempts={}",
            self.shard.to_string(),
            format!("{}:{}", self.key.local_addr, self.key.local_port),
            format!("{}:{}", self.key.remote_addr, self.key.remote_port),
            self.state,
            self.rx_queued,
            self.tx_queued,
            self.rto_attempts,
        )
    }
}

/// One row of [`Stack::listener_table`]: a TCP listener (with backlog
/// occupancy) or a bound unconnected UDP port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListenerInfo {
    /// The shard this listener row was observed on. A
    /// [`ShardedStack`](crate::ShardedStack) installs every listener on
    /// every shard, so its table has one row per (listener, shard).
    pub shard: ShardId,
    /// The bound local port.
    pub port: u16,
    /// [`IpProtocol::Tcp`] for listeners, [`IpProtocol::Udp`] for bound
    /// datagram ports.
    pub protocol: IpProtocol,
    /// Maximum embryonic + unaccepted connections (TCP only; 0 for UDP).
    pub backlog: usize,
    /// Current embryonic + unaccepted connections (TCP only).
    pub pending: usize,
}

impl core::fmt::Display for ListenerInfo {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.protocol {
            IpProtocol::Udp => write!(
                f,
                "udp  {:<4} {:<28} {:<24} BOUND",
                self.shard.to_string(),
                format!("*:{}", self.port),
                "*:*"
            ),
            _ => {
                if self.backlog == usize::MAX {
                    write!(
                        f,
                        "tcp  {:<4} {:<28} {:<24} LISTEN (backlog {}/unbounded)",
                        self.shard.to_string(),
                        format!("*:{}", self.port),
                        "*:*",
                        self.pending,
                    )
                } else {
                    write!(
                        f,
                        "tcp  {:<4} {:<28} {:<24} LISTEN (backlog {}/{})",
                        self.shard.to_string(),
                        format!("*:{}", self.port),
                        "*:*",
                        self.pending,
                        self.backlog,
                    )
                }
            }
        }
    }
}

/// Parameters for [`Stack::listen`], following the `StackConfig::with_*`
/// builder idiom. A bare port converts (`stack.listen(80)`) and means an
/// unbounded backlog; chain [`with_backlog`](Self::with_backlog) for BSD
/// semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListenConfig {
    /// The local port to listen on (all local addresses).
    pub port: u16,
    /// Maximum connections that may be embryonic (SYN-RECEIVED) or
    /// established-but-unaccepted at once; SYNs beyond it are dropped
    /// silently (the BSD behavior — the client retransmits).
    pub backlog: usize,
}

impl ListenConfig {
    /// Listen on `port` with no backlog limit — convenient for harnesses
    /// that process connections without ever calling [`Stack::accept`].
    pub fn port(port: u16) -> Self {
        Self {
            port,
            backlog: usize::MAX,
        }
    }

    /// Cap the backlog at `backlog` pending connections.
    pub fn with_backlog(mut self, backlog: usize) -> Self {
        self.backlog = backlog;
        self
    }

    /// The classic BSD default backlog (4.2BSD's `SOMAXCONN` of
    /// [`Stack::BSD_BACKLOG`]), for period-accurate semantics.
    pub fn with_bsd_backlog(self) -> Self {
        self.with_backlog(Stack::BSD_BACKLOG)
    }
}

impl From<u16> for ListenConfig {
    fn from(port: u16) -> Self {
        Self::port(port)
    }
}

/// A TCP listener: its wildcard key, capacity, and accept queue.
#[derive(Debug)]
struct Listener {
    key: ListenKey,
    backlog: usize,
    /// Connections in SYN-RECEIVED attributed to this listener.
    embryonic: usize,
    /// Established connections awaiting `accept`.
    accept_queue: std::collections::VecDeque<PcbId>,
}

impl Listener {
    fn pending(&self) -> usize {
        self.embryonic + self.accept_queue.len()
    }
}

/// A host: one IPv4 address, one demultiplexer, many connections.
pub struct Stack {
    config: StackConfig,
    arena: PcbArena,
    demux: Box<dyn Demux>,
    listeners: Vec<Listener>,
    udp_listeners: Vec<ListenKey>,
    /// Which listener (index into `listeners`) each not-yet-accepted
    /// connection belongs to.
    listener_of: HashMap<PcbId, usize>,
    sockets: HashMap<PcbId, SocketBuffer>,
    stats: StackStats,
    tx_pool: TxPool,
    next_ephemeral: u16,
    next_iss: u32,
    timers: crate::timer::TimerWheel<TimerEvent>,
    /// Unacknowledged segments per connection, awaiting cumulative ACKs
    /// or retransmission.
    retx: HashMap<PcbId, RetxQueue>,
    /// Enqueued-but-untransmitted application bytes per connection; the
    /// windowed transmit path drains these in [`Stack::poll_transmit`].
    sendbufs: HashMap<PcbId, SendBuffer>,
    /// Connections with buffered data awaiting a transmit poll, FIFO.
    tx_pending: VecDeque<PcbId>,
    /// Membership set for `tx_pending` (no duplicate queue entries).
    tx_pending_set: HashSet<PcbId>,
    /// Per-connection delayed-ACK state (unacked in-order data segments
    /// and the armed ack timer, if any).
    delayed: HashMap<PcbId, DelayedAckState>,
    /// The congestion controller driving every connection's cwnd.
    cc: Box<dyn CongestionControl>,
    neighbors: crate::neighbor::NeighborCache,
    now_ticks: u64,
    /// Structured telemetry: every demux lookup, connection lifecycle
    /// change, retransmission, and receive batch records here.
    recorder: Recorder,
}

impl Stack {
    /// Create a stack from its config — the single construction path.
    /// The demultiplexer comes from [`StackConfig::with_demux`]'s factory
    /// and telemetry goes to [`StackConfig::with_recorder`]'s recorder
    /// (or a private one).
    pub fn with_config(config: StackConfig) -> Self {
        let demux = config.build_demux();
        let recorder = config.recorder().unwrap_or_default();
        let cc = config.window.build_cc();
        Self {
            next_ephemeral: config.ephemeral_base,
            config,
            arena: PcbArena::new(),
            demux,
            listeners: Vec::new(),
            udp_listeners: Vec::new(),
            listener_of: HashMap::new(),
            sockets: HashMap::new(),
            stats: StackStats::default(),
            tx_pool: TxPool::default(),
            next_iss: 0x1000_0000,
            timers: crate::timer::TimerWheel::new(256),
            retx: HashMap::new(),
            sendbufs: HashMap::new(),
            tx_pending: VecDeque::new(),
            tx_pending_set: HashSet::new(),
            delayed: HashMap::new(),
            cc,
            neighbors: crate::neighbor::NeighborCache::with_defaults(),
            now_ticks: 0,
            recorder,
        }
    }

    /// The shard this stack was configured as (shard 0 standalone).
    pub fn shard_id(&self) -> ShardId {
        self.config.shard
    }

    /// A handle to the stack's telemetry recorder. Clones share the
    /// underlying store, so callers can snapshot, reset, or record
    /// alongside the stack.
    pub fn recorder(&self) -> Recorder {
        self.recorder.clone()
    }

    /// Advance the stack's clock to `tick`: fire TIME-WAIT expirations,
    /// fire retransmission timeouts (returning the frames to re-emit, or
    /// aborting connections whose retry budget is spent), and sweep stale
    /// neighbor-cache entries.
    ///
    /// # Panics
    ///
    /// If `tick` is behind the stack's clock — checked before anything
    /// mutates, so a bad caller cannot leave the clock half-advanced.
    pub fn advance_time(&mut self, tick: u64) -> TimeAdvance {
        assert!(
            tick >= self.now_ticks,
            "time went backwards: {} < {}",
            tick,
            self.now_ticks
        );
        self.now_ticks = tick;
        self.neighbors.expire(tick);
        let expired = self.timers.advance_to(tick);
        let mut advance = TimeAdvance::default();
        for event in expired {
            match event {
                TimerEvent::TimeWait(id, key) => {
                    // The timer may be stale: the slot could have been
                    // reclaimed by an RST already. The arena's generation
                    // check makes a stale handle harmless.
                    if matches!(
                        self.arena.get(id).map(|p| p.state()),
                        Some(TcpState::TimeWait)
                    ) {
                        self.reclaim(id, &key, CloseCause::Graceful);
                        advance.reclaimed += 1;
                    }
                }
                TimerEvent::Retransmit(id, key) => {
                    self.on_retx_timeout(id, &key, &mut advance);
                }
                TimerEvent::DelayedAck(id, key) => {
                    let owed = match self.delayed.get_mut(&id) {
                        Some(state) => {
                            state.timer = None;
                            state.pending > 0
                        }
                        None => false,
                    };
                    if owed && self.arena.get(id).is_some() {
                        let frame = self.make_ack(&key, id);
                        self.note_ack_emitted(id);
                        self.recorder.event(Event::DelayedAck);
                        advance.acks.push(frame);
                        advance.acks_sent += 1;
                    }
                }
            }
        }
        advance
    }

    /// The earliest tick at which a scheduled timer (retransmission or
    /// TIME-WAIT) is due, if any — what a discrete-event driver passes to
    /// [`advance_time`](Self::advance_time) to jump over idle time.
    pub fn next_timer_deadline(&self) -> Option<u64> {
        self.timers.next_due_tick()
    }

    /// Number of connections currently sitting in TIME-WAIT.
    pub fn time_wait_count(&self) -> usize {
        self.arena
            .iter()
            .filter(|(_, p)| p.state() == TcpState::TimeWait)
            .count()
    }

    /// Snapshot of every live connection and its state (like `netstat`'s
    /// per-connection rows, in arena order).
    pub fn connections(&self) -> Vec<(ConnectionKey, TcpState)> {
        self.arena
            .iter()
            .map(|(_, p)| (p.key(), p.state()))
            .collect()
    }

    /// Structured per-connection rows — what `netstat -an` would print,
    /// but as data a test or sim can assert on: key, state, queue depths,
    /// and loss-recovery state. Arena order. Each row's [`Display`] impl
    /// renders the classic text line.
    pub fn connection_table(&self) -> Vec<ConnectionInfo> {
        self.arena
            .iter()
            .map(|(id, p)| ConnectionInfo {
                shard: self.config.shard,
                key: p.key(),
                state: p.state(),
                rx_queued: self.sockets.get(&id).map_or(0, |s| s.available()),
                tx_queued: self
                    .retx
                    .get(&id)
                    .map_or(0, |q| q.segments.iter().map(|s| s.payload.len()).sum()),
                inflight_segments: self.retx.get(&id).map_or(0, |q| q.segments.len()),
                rto_attempts: p.rto_attempts,
            })
            .collect()
    }

    /// Structured per-listener rows: every TCP listener with its backlog
    /// occupancy, then every bound (unconnected) UDP port.
    pub fn listener_table(&self) -> Vec<ListenerInfo> {
        let mut out: Vec<ListenerInfo> = self
            .listeners
            .iter()
            .map(|l| ListenerInfo {
                shard: self.config.shard,
                port: l.key.local_port,
                protocol: IpProtocol::Tcp,
                backlog: l.backlog,
                pending: l.pending(),
            })
            .collect();
        out.extend(self.udp_listeners.iter().map(|l| ListenerInfo {
            shard: self.config.shard,
            port: l.local_port,
            protocol: IpProtocol::Udp,
            backlog: 0,
            pending: 0,
        }));
        out
    }

    /// Park a TIME-WAIT connection: reclaim now (timer-free model) or
    /// schedule the 2·MSL timer.
    fn enter_time_wait(&mut self, id: PcbId, key: &ConnectionKey) -> bool {
        // Reaching TIME-WAIT means our FIN was acknowledged: nothing is
        // in flight anymore, so the retransmission queue dissolves.
        self.drop_retx(id);
        match self.config.time_wait_ticks {
            None => {
                self.reclaim(id, key, CloseCause::Graceful);
                true
            }
            Some(ticks) => {
                self.timers.schedule(ticks, TimerEvent::TimeWait(id, *key));
                false
            }
        }
    }

    /// This host's address.
    pub fn local_addr(&self) -> Ipv4Addr {
        self.config.local_addr
    }

    /// This host's MAC address (derived deterministically from the IPv4
    /// address; the in-memory fabric has no ARP).
    pub fn mac(&self) -> tcpdemux_wire::EthernetAddress {
        tcpdemux_wire::EthernetAddress::from_ipv4(self.config.local_addr)
    }

    /// Process one received *Ethernet* frame: link-layer filtering, then
    /// the normal IPv4 receive path on the payload.
    pub fn receive_ethernet(&mut self, frame: &[u8]) -> Result<RxResult, WireError> {
        use tcpdemux_wire::{EtherType, EthernetFrame, EthernetRepr};
        let eth = EthernetFrame::new_checked(frame).map_err(|e| {
            self.stats.frames_in += 1;
            self.stats.ip_errors += 1;
            e
        })?;
        let repr = EthernetRepr::parse(&eth)?;
        if repr.dst_addr != self.mac() && !repr.dst_addr.is_broadcast() {
            self.stats.frames_in += 1;
            self.stats.not_for_us += 1;
            return Ok(RxResult {
                outcome: RxOutcome::NotForUs,
                replies: Vec::new(),
                pcbs_examined: 0,
            });
        }
        match repr.ethertype {
            EtherType::Ipv4 => self.receive(eth.payload()),
            EtherType::Arp => self.receive_arp(eth.payload()),
            EtherType::Unknown(_) => {
                self.stats.frames_in += 1;
                self.stats.bad_protocol += 1;
                Ok(RxResult {
                    outcome: RxOutcome::UnhandledProtocol,
                    replies: Vec::new(),
                    pcbs_examined: 0,
                })
            }
        }
    }

    fn receive_arp(&mut self, packet: &[u8]) -> Result<RxResult, WireError> {
        use tcpdemux_wire::{ArpOperation, ArpRepr};
        self.stats.frames_in += 1;
        let arp = ArpRepr::parse(packet).map_err(|e| {
            self.stats.ip_errors += 1;
            e
        })?;
        // Learn the sender's mapping from either message kind.
        self.neighbors
            .learn(arp.src_ip, arp.src_mac, self.now_ticks);
        if arp.operation == ArpOperation::Request && arp.dst_ip == self.config.local_addr {
            let reply = arp.reply_to(self.mac());
            let bytes = reply.emit();
            let payload_len = bytes.len().max(tcpdemux_wire::ethernet::MIN_PAYLOAD);
            let mut out = self.tx_pool.take();
            out.clear();
            out.resize(tcpdemux_wire::ethernet::HEADER_LEN + payload_len, 0);
            {
                let mut eth = tcpdemux_wire::EthernetFrame::new_unchecked(&mut out[..]);
                tcpdemux_wire::EthernetRepr {
                    src_addr: self.mac(),
                    dst_addr: arp.src_mac,
                    ethertype: tcpdemux_wire::EtherType::Arp,
                }
                .emit(&mut eth)
                .expect("sized buffer");
                eth.payload_mut()[..bytes.len()].copy_from_slice(&bytes);
            }
            self.stats.frames_out += 1;
            return Ok(RxResult {
                outcome: RxOutcome::ArpReplied,
                replies: vec![out],
                pcbs_examined: 0,
            });
        }
        Ok(RxResult {
            outcome: RxOutcome::ArpProcessed,
            replies: Vec::new(),
            pcbs_examined: 0,
        })
    }

    /// The MAC this stack would use to reach `dst_addr`: the learned ARP
    /// mapping if one is live, else the deterministic derived MAC (the
    /// in-memory fabric's substitute for a real broadcast resolution).
    pub fn resolve(&mut self, dst_addr: Ipv4Addr) -> tcpdemux_wire::EthernetAddress {
        self.neighbors
            .lookup(dst_addr, self.now_ticks)
            .unwrap_or_else(|| tcpdemux_wire::EthernetAddress::from_ipv4(dst_addr))
    }

    /// Wrap an IPv4 packet produced by this stack in an Ethernet frame
    /// addressed to `dst_addr` (via the neighbor cache, falling back to
    /// the derived MAC).
    pub fn encapsulate(&mut self, ip_packet: &[u8], dst_addr: Ipv4Addr) -> Vec<u8> {
        let dst_mac = self.resolve(dst_addr);
        let mut buf = self.tx_pool.take();
        tcpdemux_wire::ethernet::encapsulate_ipv4_into(self.mac(), dst_mac, ip_packet, &mut buf);
        buf
    }

    /// Everything observable about the stack right now, owned: the
    /// receive-path counters, the demultiplexer's lookup statistics, the
    /// transmit-pool counters, and the full telemetry snapshot. Capture
    /// one before an operation and another after to diff any counter.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            stack: self.stats,
            demux: *self.demux.stats(),
            tx_pool: self.tx_pool.stats(),
            telemetry: self.recorder.snapshot(),
        }
    }

    /// Number of live connections (TCP in any state plus connected UDP).
    pub fn connection_count(&self) -> usize {
        self.arena.len()
    }

    /// Whether a connection is in `ESTABLISHED`.
    pub fn is_established(&self, pcb: PcbId) -> bool {
        self.arena
            .get(pcb)
            .map(|p| p.state() == TcpState::Established)
            .unwrap_or(false)
    }

    /// The connection's current state, if it exists.
    pub fn state(&self, pcb: PcbId) -> Option<TcpState> {
        self.arena.get(pcb).map(|p| p.state())
    }

    /// The connection's four-tuple (this stack's perspective), if it
    /// exists.
    pub fn connection_key(&self, pcb: PcbId) -> Option<ConnectionKey> {
        self.arena.get(pcb).map(|p| p.key())
    }

    /// The socket buffer for a connection.
    pub fn socket(&self, pcb: PcbId) -> Option<&SocketBuffer> {
        self.sockets.get(&pcb)
    }

    /// Mutable socket buffer (to read delivered bytes).
    pub fn socket_mut(&mut self, pcb: PcbId) -> Option<&mut SocketBuffer> {
        self.sockets.get_mut(&pcb)
    }

    /// The classic BSD default backlog (4.2BSD's `SOMAXCONN`), for
    /// callers who want period-accurate semantics via
    /// [`ListenConfig::with_bsd_backlog`].
    pub const BSD_BACKLOG: usize = 5;

    /// Start a TCP listener. A bare port listens on all local addresses
    /// with no backlog limit (`stack.listen(80)`); pass a [`ListenConfig`]
    /// to bound the backlog:
    ///
    /// ```
    /// # use tcpdemux_stack::{ListenConfig, Stack, StackConfig};
    /// # use std::net::Ipv4Addr;
    /// # let mut stack = Stack::with_config(
    /// #     StackConfig::new(Ipv4Addr::new(10, 0, 0, 1)),
    /// # );
    /// stack.listen(80).unwrap();
    /// stack.listen(ListenConfig::port(1521).with_backlog(16)).unwrap();
    /// ```
    pub fn listen(&mut self, config: impl Into<ListenConfig>) -> Result<(), StackError> {
        let ListenConfig { port, backlog } = config.into();
        if backlog == 0 {
            return Err(StackError::InvalidState(TcpState::Listen));
        }
        if self.listeners.iter().any(|l| l.key.local_port == port) {
            return Err(StackError::PortInUse(port));
        }
        self.listeners.push(Listener {
            key: ListenKey::any(port),
            backlog,
            embryonic: 0,
            accept_queue: std::collections::VecDeque::new(),
        });
        Ok(())
    }

    /// Dequeue the oldest established-but-unaccepted connection on a
    /// listening port, if any. After `accept`, the connection is the
    /// application's; before it, data segments are still processed and
    /// buffered (as BSD does for connections in the accept queue).
    pub fn accept(&mut self, port: u16) -> Option<PcbId> {
        let idx = self
            .listeners
            .iter()
            .position(|l| l.key.local_port == port)?;
        let id = self.listeners[idx].accept_queue.pop_front()?;
        self.listener_of.remove(&id);
        Some(id)
    }

    /// Number of connections waiting in a port's accept queue.
    pub fn accept_queue_len(&self, port: u16) -> usize {
        self.listeners
            .iter()
            .find(|l| l.key.local_port == port)
            .map(|l| l.accept_queue.len())
            .unwrap_or(0)
    }

    /// Open a UDP socket bound to `port` (unconnected; receives anything
    /// addressed to the port).
    pub fn udp_bind(&mut self, port: u16) -> Result<(), StackError> {
        if self.udp_listeners.iter().any(|l| l.local_port == port) {
            return Err(StackError::PortInUse(port));
        }
        self.udp_listeners.push(ListenKey::any(port));
        Ok(())
    }

    /// Open a *connected* UDP socket: a full four-tuple entered into the
    /// demultiplexer, exactly as Partridge & Pink's "faster UDP" assumes.
    pub fn udp_open(
        &mut self,
        local_port: u16,
        remote_addr: Ipv4Addr,
        remote_port: u16,
    ) -> Result<PcbId, StackError> {
        let key = ConnectionKey::new(self.config.local_addr, local_port, remote_addr, remote_port);
        let pcb = Pcb::new_in_state(key, TcpState::Established);
        let id = self.arena.insert(pcb);
        self.demux.insert(key, id);
        self.recorder.event(Event::ConnOpen);
        self.sockets.insert(id, SocketBuffer::new());
        Ok(id)
    }

    /// Whether a local port is currently held by anything that demuxes:
    /// a TCP or UDP listener, or any live connection's local endpoint.
    /// The ephemeral allocators (here and in the sharded runtime's
    /// [`SteerTable`](crate::shard::SteerTable)) consult this before
    /// minting a port, so a recycled port can never coin a
    /// [`ConnectionKey`] that collides with a live flow or listener.
    pub fn ephemeral_port_in_use(&self, port: u16) -> bool {
        self.listeners.iter().any(|l| l.key.local_port == port)
            || self.udp_listeners.iter().any(|l| l.local_port == port)
            || self
                .arena
                .iter()
                .any(|(_, pcb)| pcb.key().local_port == port)
    }

    /// Hand out the next free ephemeral port. The cursor wraps from
    /// `u16::MAX` back to `ephemeral_base`, but a port still held by a
    /// live connection or a listener is skipped — reissuing it would mint
    /// a duplicate [`ConnectionKey`] that demuxes to the wrong PCB. If
    /// every port in the range is occupied the allocator reports
    /// [`StackError::NoEphemeralPorts`] rather than recycling one.
    fn alloc_ephemeral(&mut self) -> Result<u16, StackError> {
        let span = usize::from(u16::MAX) - usize::from(self.config.ephemeral_base) + 1;
        for _ in 0..span {
            let port = self.next_ephemeral;
            self.next_ephemeral = if self.next_ephemeral == u16::MAX {
                self.config.ephemeral_base
            } else {
                self.next_ephemeral + 1
            };
            if !self.ephemeral_port_in_use(port) {
                return Ok(port);
            }
        }
        Err(StackError::NoEphemeralPorts)
    }

    fn alloc_iss(&mut self) -> SeqNum {
        let iss = SeqNum(self.next_iss);
        self.next_iss = self.next_iss.wrapping_add(64_000);
        iss
    }

    /// Begin an active open to `remote:port`. Returns the new connection's
    /// handle and the SYN frame to transmit.
    pub fn connect(
        &mut self,
        remote_addr: Ipv4Addr,
        remote_port: u16,
    ) -> Result<(PcbId, Vec<u8>), StackError> {
        let local_port = self.alloc_ephemeral()?;
        self.connect_from(local_port, remote_addr, remote_port)
    }

    /// [`connect`](Self::connect) with an explicit local port instead of
    /// a freshly-allocated ephemeral one. The sharded runtime uses this:
    /// the four-tuple decides which shard owns a flow, so the runtime
    /// must allocate the port *globally*, compute the owning shard from
    /// the full key, and only then place the connection there.
    pub fn connect_from(
        &mut self,
        local_port: u16,
        remote_addr: Ipv4Addr,
        remote_port: u16,
    ) -> Result<(PcbId, Vec<u8>), StackError> {
        let key = ConnectionKey::new(self.config.local_addr, local_port, remote_addr, remote_port);
        let mut pcb = Pcb::new(key);
        pcb.on_event(TcpEvent::AppConnect)
            .expect("CLOSED accepts connect");
        let iss = self.alloc_iss();
        pcb.init_send(iss, self.config.window.advertise);
        pcb.mss = self.config.mss;
        pcb.cong = CongestionState::new(self.config.window.initial_cwnd);
        let id = self.arena.insert(pcb);
        self.demux.insert(key, id);
        self.recorder.event(Event::ConnOpen);
        self.sockets.insert(id, SocketBuffer::new());

        let syn = TcpRepr {
            src_port: key.local_port,
            dst_port: key.remote_port,
            seq: iss.raw(),
            ack: 0,
            flags: TcpFlags::SYN,
            window: self.config.window.advertise,
            mss: Some(self.config.mss),
            window_scale: None,
        };
        let frame = self.emit_tcp(&key, &syn, b"");
        // The SYN occupies one sequence number and must be answered.
        self.track_segment(id, &key, iss, iss + 1, TcpFlags::SYN, syn.mss, b"", false);
        Ok((id, frame))
    }

    /// Enqueue payload for transmission on an established connection.
    ///
    /// Returns how many bytes the connection's send buffer accepted
    /// (zero when it is full — backpressure, not an error). Nothing goes
    /// on the wire here: [`Stack::poll_transmit`] drains the buffer
    /// under the transmit window `min(peer rwnd, cwnd)`.
    pub fn send(&mut self, pcb: PcbId, payload: &[u8]) -> Result<usize, StackError> {
        {
            let p = self.arena.get(pcb).ok_or(StackError::NoSuchConnection)?;
            if !p.state().can_transfer_data() {
                return Err(StackError::NotEstablished);
            }
        }
        let cap = self.config.window.send_buffer;
        let buf = self
            .sendbufs
            .entry(pcb)
            .or_insert_with(|| SendBuffer::new(cap));
        let accepted = buf.push(payload);
        if !buf.is_empty() {
            self.mark_tx_pending(pcb);
        }
        Ok(accepted)
    }

    /// Bytes enqueued on a connection's send buffer and not yet emitted.
    pub fn send_queued(&self, pcb: PcbId) -> usize {
        self.sendbufs.get(&pcb).map_or(0, |b| b.len())
    }

    /// A connection's congestion-control state (cwnd, ssthresh, recovery
    /// flags), or `None` if the handle is dead.
    pub fn congestion(&self, pcb: PcbId) -> Option<CongestionState> {
        self.arena.get(pcb).map(|p| p.cong)
    }

    /// Queue a connection for the next transmit poll (idempotent).
    fn mark_tx_pending(&mut self, pcb: PcbId) {
        if self.tx_pending_set.insert(pcb) {
            self.tx_pending.push_back(pcb);
        }
    }

    /// Emit everything the transmit window permits, across every
    /// connection with buffered data, into `scratch.frames` (cleared on
    /// entry). Returns the number of frames produced.
    ///
    /// Each connection sends MSS-sized segments while
    /// `min(peer rwnd, cwnd)` exceeds its in-flight bytes. A connection
    /// stalled on a *closed* peer window (rwnd = 0) with nothing in
    /// flight emits a one-byte zero-window probe instead; its
    /// retransmission timer doubles as the persist timer and never
    /// counts against the retry budget.
    pub fn poll_transmit(&mut self, scratch: &mut TxScratch) -> usize {
        scratch.frames.clear();
        let rounds = self.tx_pending.len();
        for _ in 0..rounds {
            let Some(id) = self.tx_pending.pop_front() else {
                break;
            };
            if !self.tx_pending_set.remove(&id) {
                continue; // stale entry: reclaimed while queued
            }
            self.transmit_for(id, scratch);
        }
        scratch.frames.len()
    }

    /// Drain one connection's send buffer under its transmit window.
    fn transmit_for(&mut self, pcb: PcbId, scratch: &mut TxScratch) {
        let Some(mut buf) = self.sendbufs.remove(&pcb) else {
            return;
        };
        let mss = usize::from(self.config.mss);
        loop {
            if buf.is_empty() {
                break;
            }
            let window = self.advertised_window(pcb);
            let Some(p) = self.arena.get_mut(pcb) else {
                // Connection died with data still buffered; drop it.
                return;
            };
            if !p.state().can_transfer_data() {
                break;
            }
            let key = p.key();
            let inflight = p.snd.nxt.raw().wrapping_sub(p.snd.una.raw()) as usize;
            let rwnd = usize::from(p.snd.wnd);
            let wnd = rwnd.min(p.cong.cwnd);
            // Either a normal segment under the open window, or — when
            // the peer's window is *closed* and nothing is in flight — a
            // one-byte zero-window probe that forces the peer to re-ACK
            // its current window (the persist mechanism).
            let (take, probe) = if wnd > inflight {
                (buf.len().min(wnd - inflight).min(mss), false)
            } else if rwnd == 0 && inflight == 0 {
                (1, true)
            } else {
                if rwnd <= inflight {
                    // The peer's window, not cwnd, is the bottleneck; an
                    // incoming ACK will reopen it, no probe needed.
                    self.record_rwnd_stall();
                }
                break;
            };
            let seq = p.snd.nxt;
            p.snd.nxt += take as u32;
            p.note_segment_out(take);
            let ack = p.rcv.nxt;
            let repr = TcpRepr {
                src_port: key.local_port,
                dst_port: key.remote_port,
                seq: seq.raw(),
                ack: ack.raw(),
                flags: TcpFlags::ACK | TcpFlags::PSH,
                window,
                ..TcpRepr::default()
            };
            // `peek` is contiguous from the head; `take` never exceeds
            // it because SendBuffer stores one linear run.
            let payload = &buf.peek()[..take];
            let frame = self.emit_tcp(&key, &repr, payload);
            self.track_segment(
                pcb,
                &key,
                seq,
                seq + take as u32,
                repr.flags,
                None,
                payload,
                probe,
            );
            scratch.frames.push(frame);
            buf.consume(take);
            if probe {
                self.record_rwnd_stall();
                self.recorder.event(Event::ZeroWindowProbe);
                break;
            }
        }
        if !buf.is_empty() {
            self.mark_tx_pending(pcb);
        }
        // Keep the (possibly empty) buffer so its allocation is reused.
        self.sendbufs.insert(pcb, buf);
    }

    /// Record an rwnd-bound transmit stall in stats and telemetry.
    fn record_rwnd_stall(&mut self) {
        self.recorder.event(Event::RwndStall);
    }

    /// The receive window to advertise right now for a connection:
    /// the configured ceiling shrunk by delivered-but-unread socket
    /// occupancy (so a slow reader closes the window instead of letting
    /// the peer overrun the receive buffer).
    fn advertised_window(&self, pcb: PcbId) -> u16 {
        let occupancy = self.sockets.get(&pcb).map_or(0, |s| s.available());
        let free = self.config.window.recv_buffer.saturating_sub(occupancy);
        u16::try_from(free.min(usize::from(self.config.window.advertise))).unwrap_or(u16::MAX)
    }

    /// Send a UDP datagram on a connected UDP socket.
    pub fn udp_send(&mut self, pcb: PcbId, payload: &[u8]) -> Result<Vec<u8>, StackError> {
        let key = self
            .arena
            .get(pcb)
            .ok_or(StackError::NoSuchConnection)?
            .key();
        let ip = Ipv4Repr::new(key.local_addr, key.remote_addr, IpProtocol::Udp);
        let udp = UdpRepr {
            src_port: key.local_port,
            dst_port: key.remote_port,
        };
        self.stats.frames_out += 1;
        self.demux.note_send(&key);
        if let Some(p) = self.arena.get_mut(pcb) {
            p.note_segment_out(payload.len());
        }
        let mut buf = self.tx_pool.take();
        build_udp_frame_into(&ip, &udp, payload, &mut buf);
        Ok(buf)
    }

    /// Close our direction of a connection. Returns the FIN frame.
    ///
    /// Fails with [`StackError::InvalidState`] while enqueued data is
    /// still awaiting transmission — the FIN occupies the sequence
    /// number after the last data byte, so callers drain the send
    /// buffer ([`Stack::poll_transmit`] until [`Stack::send_queued`] is
    /// zero) before closing.
    pub fn close(&mut self, pcb: PcbId) -> Result<Vec<u8>, StackError> {
        let (key, seq, ack, window) = {
            if self.send_queued(pcb) > 0 {
                let state = self
                    .arena
                    .get(pcb)
                    .map(|p| p.state())
                    .ok_or(StackError::NoSuchConnection)?;
                return Err(StackError::InvalidState(state));
            }
            let p = self
                .arena
                .get_mut(pcb)
                .ok_or(StackError::NoSuchConnection)?;
            let state = p.state();
            p.on_event(TcpEvent::AppClose)
                .map_err(|_| StackError::InvalidState(state))?;
            let seq = p.snd.nxt;
            p.snd.nxt += 1; // FIN consumes a sequence number
            (p.key(), seq, p.rcv.nxt, p.rcv.wnd)
        };
        let repr = TcpRepr {
            src_port: key.local_port,
            dst_port: key.remote_port,
            seq: seq.raw(),
            ack: ack.raw(),
            flags: TcpFlags::FIN | TcpFlags::ACK,
            window,
            ..TcpRepr::default()
        };
        let frame = self.emit_tcp(&key, &repr, b"");
        self.track_segment(pcb, &key, seq, seq + 1, repr.flags, None, b"", false);
        Ok(frame)
    }

    /// Abort a connection: send RST and reclaim immediately.
    pub fn abort(&mut self, pcb: PcbId) -> Result<Vec<u8>, StackError> {
        let (key, seq) = {
            let p = self.arena.get(pcb).ok_or(StackError::NoSuchConnection)?;
            (p.key(), p.snd.nxt)
        };
        let repr = TcpRepr {
            src_port: key.local_port,
            dst_port: key.remote_port,
            seq: seq.raw(),
            ack: 0,
            flags: TcpFlags::RST,
            window: 0,
            ..TcpRepr::default()
        };
        let frame = self.emit_tcp(&key, &repr, b"");
        self.reclaim(pcb, &key, CloseCause::LocalAbort);
        Ok(frame)
    }

    fn reclaim(&mut self, pcb: PcbId, key: &ConnectionKey, cause: CloseCause) {
        self.reclaim_inner(pcb, key, false, cause);
    }

    fn reclaim_inner(
        &mut self,
        pcb: PcbId,
        key: &ConnectionKey,
        keep_socket: bool,
        cause: CloseCause,
    ) {
        self.drop_retx(pcb);
        self.sendbufs.remove(&pcb);
        self.tx_pending_set.remove(&pcb);
        if let Some(state) = self.delayed.remove(&pcb) {
            if let Some(timer) = state.timer {
                self.timers.cancel(timer);
            }
        }
        self.demux.remove(key);
        self.recorder.event(Event::ConnClose { cause });
        self.arena.remove(pcb);
        if !keep_socket {
            self.sockets.remove(&pcb);
        }
        // A connection dying before accept releases its backlog slot.
        if let Some(idx) = self.listener_of.remove(&pcb) {
            let listener = &mut self.listeners[idx];
            if let Some(pos) = listener.accept_queue.iter().position(|&q| q == pcb) {
                listener.accept_queue.remove(pos);
            } else {
                listener.embryonic -= 1;
            }
        }
    }

    /// Detach and reap the socket of a connection the stack has aborted
    /// (see [`TimeAdvance::aborted`]); the application reads the error
    /// and any residual data from the returned buffer. Returns `None`
    /// while the connection is still live (its socket stays attached) or
    /// if the handle is unknown.
    pub fn release_socket(&mut self, pcb: PcbId) -> Option<SocketBuffer> {
        if self.arena.get(pcb).is_some() {
            return None;
        }
        self.sockets.remove(&pcb)
    }

    /// Cancel a connection's retransmission timer and return its queued
    /// payload buffers to the pool.
    fn drop_retx(&mut self, pcb: PcbId) {
        if let Some(queue) = self.retx.remove(&pcb) {
            if let Some(timer) = queue.timer {
                self.timers.cancel(timer);
            }
            for seg in queue.segments {
                if seg.payload.capacity() > 0 {
                    self.tx_pool.recycle(seg.payload);
                }
            }
        }
    }

    /// Put a just-transmitted segment on the retransmission queue and
    /// make sure the RTO timer is running. Segments that occupy no
    /// sequence space (pure ACKs, RSTs, window probes) are not tracked —
    /// nothing acknowledges them.
    #[allow(clippy::too_many_arguments)]
    fn track_segment(
        &mut self,
        pcb: PcbId,
        key: &ConnectionKey,
        seq: SeqNum,
        end: SeqNum,
        flags: TcpFlags,
        mss: Option<u16>,
        payload: &[u8],
        probe: bool,
    ) {
        if end == seq {
            return;
        }
        let buf = if payload.is_empty() {
            Vec::new()
        } else {
            let mut buf = self.tx_pool.take();
            buf.clear();
            buf.extend_from_slice(payload);
            buf
        };
        let queue = self.retx.entry(pcb).or_default();
        queue.segments.push_back(InflightSegment {
            seq,
            end,
            flags,
            mss,
            payload: buf,
            sent_at: self.now_ticks,
            retransmitted: false,
            probe,
        });
        if queue.timer.is_none() {
            self.arm_retx_timer(pcb, key);
        }
    }

    /// The connection's current RTO in ticks (estimator RTO backed off by
    /// the consecutive-expiry count, floored at one tick).
    fn rto_ticks(&self, pcb: PcbId) -> u64 {
        let rto_us = self
            .arena
            .get(pcb)
            .map(|p| p.current_rto())
            .unwrap_or(RttEstimator::DEFAULT_MIN_RTO);
        (rto_us / US_PER_TICK).max(1)
    }

    /// (Re)arm the retransmission timer for a connection, replacing any
    /// previously armed one.
    fn arm_retx_timer(&mut self, pcb: PcbId, key: &ConnectionKey) {
        let after = self.rto_ticks(pcb);
        if let Some(queue) = self.retx.get_mut(&pcb) {
            if let Some(old) = queue.timer.take() {
                self.timers.cancel(old);
            }
            queue.timer = Some(
                self.timers
                    .schedule(after, TimerEvent::Retransmit(pcb, *key)),
            );
        }
    }

    /// A cumulative ACK advanced SND.UNA to `ack`: retire every fully
    /// covered segment, sample the RTT from clean (never-retransmitted)
    /// ones per Karn's rule, reset the backoff, and re-arm or cancel the
    /// RTO timer.
    fn on_ack(&mut self, pcb: PcbId, key: &ConnectionKey, ack: SeqNum) {
        let now = self.now_ticks;
        let Some(queue) = self.retx.get_mut(&pcb) else {
            return;
        };
        let mut retired = false;
        while let Some(front) = queue.segments.front() {
            if !front.end.le(ack) {
                break;
            }
            let seg = queue.segments.pop_front().expect("front exists");
            retired = true;
            if let Some(p) = self.arena.get_mut(pcb) {
                let elapsed = now.saturating_sub(seg.sent_at) * US_PER_TICK;
                if p.rtt.sample_acked(elapsed, seg.retransmitted) {
                    self.stats.rtt_samples += 1;
                }
            }
            if seg.payload.capacity() > 0 {
                self.tx_pool.recycle(seg.payload);
            }
        }
        if !retired {
            return;
        }
        // New data was acknowledged: the peer is alive, backoff resets.
        if let Some(p) = self.arena.get_mut(pcb) {
            p.rto_attempts = 0;
        }
        if self
            .retx
            .get(&pcb)
            .is_some_and(|queue| queue.segments.is_empty())
        {
            self.drop_retx(pcb);
        } else {
            self.arm_retx_timer(pcb, key);
        }
    }

    /// The RTO fired for a connection: retransmit the *oldest* unacked
    /// segment only (the cumulative ACK it provokes retires everything
    /// it covers — re-emitting the whole queue go-back-N style just
    /// burns the path's remaining capacity), marking it ambiguous for
    /// Karn's rule, shrinking cwnd to one MSS, and doubling the backoff.
    /// Past the retry budget the connection aborts — unless the head is
    /// a zero-window probe, whose re-emission *is* the persist timer and
    /// never exhausts the budget.
    fn on_retx_timeout(&mut self, pcb: PcbId, key: &ConnectionKey, advance: &mut TimeAdvance) {
        // Take the queue out so frames can be rebuilt through
        // `emit_tcp` while holding its head.
        let Some(mut queue) = self.retx.remove(&pcb) else {
            return; // stale fire: the connection died this same batch
        };
        queue.timer = None;
        if queue.segments.is_empty() {
            return;
        }
        let head_is_probe = queue.segments.front().is_some_and(|s| s.probe);
        let Some(p) = self.arena.get_mut(pcb) else {
            // Connection already gone; return the buffers and move on.
            self.retx.insert(pcb, queue);
            self.drop_retx(pcb);
            return;
        };
        if !head_is_probe && p.rto_attempts >= self.config.max_retries {
            // Retry budget spent: abort. No RST — the path is presumed
            // dead — but the socket learns why it died and keeps any
            // bytes that were delivered before the silence.
            let _ = p.on_event(TcpEvent::Timeout);
            self.stats.timeout_aborts += 1;
            self.recorder.event(Event::Timeout);
            if let Some(sock) = self.sockets.get_mut(&pcb) {
                sock.set_error(SocketError::TimedOut);
            }
            self.retx.insert(pcb, queue);
            self.reclaim_inner(pcb, key, true, CloseCause::Timeout);
            advance.aborted.push(pcb);
            return;
        }
        if !head_is_probe {
            p.rto_attempts += 1;
            let inflight = p.snd.nxt.raw().wrapping_sub(p.snd.una.raw()) as usize;
            let mss = usize::from(self.config.mss);
            let snd_nxt = p.snd.nxt;
            let mut st = p.cong;
            self.cc.on_rto(&mut st, inflight, snd_nxt, mss);
            p.cong = st;
        }
        let attempts = p.rto_attempts;
        let ack = p.rcv.nxt;
        let window = p.rcv.wnd;
        {
            let seg = queue.segments.front_mut().expect("checked non-empty");
            seg.retransmitted = true;
            let repr = TcpRepr {
                src_port: key.local_port,
                dst_port: key.remote_port,
                seq: seg.seq.raw(),
                // ACK-bearing segments carry the *current* cumulative
                // ack, not the one from first transmission.
                ack: if seg.flags.contains(TcpFlags::ACK) {
                    ack.raw()
                } else {
                    0
                },
                flags: seg.flags,
                window,
                mss: seg.mss,
                window_scale: None,
            };
            advance
                .retransmits
                .push(self.emit_tcp(key, &repr, &seg.payload));
        }
        if head_is_probe {
            advance.zero_window_probes += 1;
            self.recorder.event(Event::ZeroWindowProbe);
        } else {
            self.stats.retransmits += 1;
            self.recorder.event(Event::Retransmit { attempt: attempts });
        }
        self.retx.insert(pcb, queue);
        self.observe_cwnd(pcb);
        self.arm_retx_timer(pcb, key);
        // The re-armed timer reflects the doubled backoff: record it.
        if !head_is_probe {
            self.recorder.event(Event::RtoBackoff {
                attempts,
                rto_ticks: self.rto_ticks(pcb),
            });
        }
    }

    /// Re-emit the oldest unacked segment right now — fast retransmit on
    /// the third duplicate ACK or a NewReno partial-ACK head re-emission
    /// (`fast`, counted as [`Event::FastRetransmit`]), or an ACK-paced
    /// go-back-N re-emission during RTO recovery (counted as a plain
    /// retransmission). Does not touch the retry budget: the path is
    /// delivering ACKs, it is not dead.
    fn retransmit_head(
        &mut self,
        pcb: PcbId,
        key: &ConnectionKey,
        fast: bool,
        dup_acks: u32,
    ) -> Option<Vec<u8>> {
        let (ack, window) = {
            let p = self.arena.get(pcb)?;
            (p.rcv.nxt, p.rcv.wnd)
        };
        let (repr, payload) = {
            let seg = self.retx.get_mut(&pcb)?.segments.front_mut()?;
            seg.retransmitted = true;
            let repr = TcpRepr {
                src_port: key.local_port,
                dst_port: key.remote_port,
                seq: seg.seq.raw(),
                ack: if seg.flags.contains(TcpFlags::ACK) {
                    ack.raw()
                } else {
                    0
                },
                flags: seg.flags,
                window,
                mss: seg.mss,
                window_scale: None,
            };
            // Escape the queue borrow for `emit_tcp`; the payload goes
            // back on the segment right after.
            (repr, std::mem::take(&mut seg.payload))
        };
        let frame = self.emit_tcp(key, &repr, &payload);
        if let Some(seg) = self.retx.get_mut(&pcb).and_then(|q| q.segments.front_mut()) {
            seg.payload = payload;
        }
        if fast {
            self.recorder.event(Event::FastRetransmit { dup_acks });
        } else {
            self.stats.retransmits += 1;
            self.recorder.event(Event::Retransmit { attempt: 0 });
        }
        self.arm_retx_timer(pcb, key);
        Some(frame)
    }

    /// Record the connection's current cwnd into the [`CwndBytes`]
    /// histogram (the A9 sawtooth evidence).
    ///
    /// [`CwndBytes`]: HistogramId::CwndBytes
    fn observe_cwnd(&mut self, pcb: PcbId) {
        if let Some(p) = self.arena.get(pcb) {
            let cwnd = u32::try_from(p.cong.cwnd).unwrap_or(u32::MAX);
            self.recorder.observe(HistogramId::CwndBytes, cwnd);
        }
    }

    /// A connection's RTT estimator state (for instrumentation and
    /// tests; `None` if the handle is dead).
    pub fn rtt_estimator(&self, pcb: PcbId) -> Option<RttEstimator> {
        self.arena.get(pcb).map(|p| p.rtt)
    }

    fn emit_tcp(&mut self, key: &ConnectionKey, repr: &TcpRepr, payload: &[u8]) -> Vec<u8> {
        let ip = Ipv4Repr::new(key.local_addr, key.remote_addr, IpProtocol::Tcp);
        self.stats.frames_out += 1;
        self.demux.note_send(key);
        let mut buf = self.tx_pool.take();
        build_tcp_frame_into(&ip, repr, payload, &mut buf);
        buf
    }

    /// Return a spent transmit buffer (a frame obtained from `send`,
    /// `receive`'s replies, `connect`'s SYN, …) to the stack's pool so
    /// later emissions reuse its capacity. Optional — un-recycled buffers
    /// simply cost an allocation each — but with recycling, steady-state
    /// transmission allocates nothing (the `tx_pool` counters in
    /// [`Stack::stats`] pin this in tests).
    pub fn recycle(&mut self, buf: Vec<u8>) {
        self.tx_pool.recycle(buf);
    }

    /// Process one received frame.
    ///
    /// `Err` means the frame failed wire-level validation (and was
    /// counted); `Ok` carries the classification, any reply frames, and
    /// the demultiplexing cost.
    pub fn receive(&mut self, frame: &[u8]) -> Result<RxResult, WireError> {
        self.stats.frames_in += 1;
        let packet =
            Ipv4Packet::new_checked(frame).and_then(|p| Ipv4Repr::parse(&p).map(|ip| (p, ip)));
        let (packet, ip) = match packet {
            Ok(parsed) => parsed,
            Err(e) => {
                self.stats.ip_errors += 1;
                return Err(e);
            }
        };
        if ip.dst_addr != self.config.local_addr {
            self.stats.not_for_us += 1;
            return Ok(RxResult {
                outcome: RxOutcome::NotForUs,
                replies: Vec::new(),
                pcbs_examined: 0,
            });
        }
        match ip.protocol {
            IpProtocol::Tcp => {
                let segment = TcpSegment::new_checked(packet.payload())
                    .and_then(|s| TcpRepr::parse(&s, ip.src_addr, ip.dst_addr).map(|t| (s, t)));
                let (segment, tcp) = match segment {
                    Ok(parsed) => parsed,
                    Err(e) => {
                        self.stats.tcp_errors += 1;
                        return Err(e);
                    }
                };
                let payload = segment.payload();
                let key = ConnectionKey::from_incoming_tcp(&ip, &tcp);
                let kind = Self::classify_tcp(&tcp, payload);
                // The paper's subject: one instrumented lookup per segment.
                let lookup = self.demux.lookup(&key, kind);
                Ok(self.apply_tcp(&key, &tcp, payload, lookup))
            }
            IpProtocol::Udp => {
                let datagram = UdpDatagram::new_checked(packet.payload())
                    .and_then(|d| UdpRepr::parse(&d, ip.src_addr, ip.dst_addr).map(|u| (d, u)));
                let (datagram, udp) = match datagram {
                    Ok(parsed) => parsed,
                    Err(e) => {
                        self.stats.tcp_errors += 1;
                        return Err(e);
                    }
                };
                let key = ConnectionKey::from_incoming_udp(&ip, &udp);
                let lookup = self.demux.lookup(&key, PacketKind::Data);
                Ok(self.apply_udp(&key, datagram.payload(), frame, packet.header_len(), lookup))
            }
            IpProtocol::Icmp => self.receive_icmp(&ip, packet.payload()),
            IpProtocol::Unknown(_) => {
                self.stats.bad_protocol += 1;
                Ok(RxResult {
                    outcome: RxOutcome::UnhandledProtocol,
                    replies: Vec::new(),
                    pcbs_examined: 0,
                })
            }
        }
    }

    /// Process a batch of received frames: [`Stack::receive`] on each
    /// frame in order, recorded as one receive batch in telemetry. A batch
    /// is a NIC receive ring's worth of packets per interrupt; every frame
    /// still costs exactly one demux lookup.
    pub fn receive_batch<F: AsRef<[u8]>>(&mut self, frames: &[F]) -> BatchRxResult {
        self.recorder.batch(frames.len() as u32);
        BatchRxResult {
            results: frames.iter().map(|f| self.receive(f.as_ref())).collect(),
            relookups: 0,
        }
    }

    /// Wrap raw ICMP bytes in an IPv4 packet addressed to `dst`.
    fn emit_icmp(&mut self, dst: Ipv4Addr, icmp_bytes: &[u8]) -> Vec<u8> {
        let ip = Ipv4Repr {
            payload_len: icmp_bytes.len(),
            ..Ipv4Repr::new(self.config.local_addr, dst, IpProtocol::Icmp)
        };
        let mut buf = self.tx_pool.take();
        buf.clear();
        buf.resize(ip.total_len(), 0);
        buf[tcpdemux_wire::ipv4::HEADER_LEN..].copy_from_slice(icmp_bytes);
        let mut packet = Ipv4Packet::new_unchecked(&mut buf[..]);
        ip.emit(&mut packet).expect("sized buffer");
        self.stats.frames_out += 1;
        buf
    }

    fn receive_icmp(&mut self, ip: &Ipv4Repr, message: &[u8]) -> Result<RxResult, WireError> {
        use tcpdemux_wire::IcmpRepr;
        let icmp = IcmpRepr::parse(message).map_err(|e| {
            self.stats.tcp_errors += 1;
            e
        })?;
        self.stats.icmp_in += 1;
        match icmp {
            IcmpRepr::EchoRequest {
                ident,
                seq,
                payload,
            } => {
                // Be pingable: echo the payload straight back.
                let reply = IcmpRepr::EchoReply {
                    ident,
                    seq,
                    payload,
                }
                .emit();
                let frame = self.emit_icmp(ip.src_addr, &reply);
                self.stats.icmp_echo_replies += 1;
                Ok(RxResult {
                    outcome: RxOutcome::EchoReplied,
                    replies: vec![frame],
                    pcbs_examined: 0,
                })
            }
            // Replies to our pings, unreachables, and exotica are counted
            // and surfaced; this harness initiates no pings of its own.
            _ => Ok(RxResult {
                outcome: RxOutcome::IcmpProcessed,
                replies: Vec::new(),
                pcbs_examined: 0,
            }),
        }
    }

    /// The demux-dependent half of UDP receive: everything after the
    /// lookup, given its result.
    fn apply_udp(
        &mut self,
        key: &ConnectionKey,
        payload: &[u8],
        full_packet: &[u8],
        ip_header_len: usize,
        lookup: LookupResult,
    ) -> RxResult {
        self.stats.pcbs_examined += u64::from(lookup.examined);
        self.recorder
            .demux_lookup(lookup.examined, lookup.pcb.is_some(), lookup.cache_hit);

        if let Some(id) = lookup.pcb {
            self.stats.demux_hits += 1;
            self.stats.bytes_delivered += payload.len() as u64;
            if let Some(p) = self.arena.get_mut(id) {
                p.note_segment_in(payload.len());
            }
            self.sockets.entry(id).or_default().deliver(payload);
            return RxResult {
                outcome: RxOutcome::Delivered {
                    pcb: id,
                    bytes: payload.len(),
                },
                replies: Vec::new(),
                pcbs_examined: lookup.examined,
            };
        }
        // Unconnected bound sockets: delivery without a PCB entry.
        if self.udp_listeners.iter().any(|l| l.matches(key)) {
            self.stats.listener_hits += 1;
            self.stats.bytes_delivered += payload.len() as u64;
            return RxResult {
                outcome: RxOutcome::DeliveredUnconnected {
                    bytes: payload.len(),
                },
                replies: Vec::new(),
                pcbs_examined: lookup.examined,
            };
        }
        // RFC 1122: a datagram for a dead port provokes ICMP
        // port-unreachable quoting the offender.
        self.stats.resets_sent += 1;
        let unreachable =
            tcpdemux_wire::IcmpRepr::port_unreachable(full_packet, ip_header_len).emit();
        let frame = self.emit_icmp(key.remote_addr, &unreachable);
        RxResult {
            outcome: RxOutcome::UdpUnreachable,
            replies: vec![frame],
            pcbs_examined: lookup.examined,
        }
    }

    /// Classify an incoming TCP segment for the demultiplexer. Pure ACKs
    /// probe send-side caches first (the paper's footnote 5).
    fn classify_tcp(tcp: &TcpRepr, payload: &[u8]) -> PacketKind {
        if payload.is_empty()
            && tcp.flags.contains(TcpFlags::ACK)
            && !tcp
                .flags
                .intersects(TcpFlags::SYN | TcpFlags::FIN | TcpFlags::RST)
        {
            PacketKind::Ack
        } else {
            PacketKind::Data
        }
    }

    /// The demux-dependent half of TCP receive: state-machine processing,
    /// listener matching, and RST generation, given a lookup result.
    fn apply_tcp(
        &mut self,
        key: &ConnectionKey,
        tcp: &TcpRepr,
        payload: &[u8],
        lookup: LookupResult,
    ) -> RxResult {
        self.stats.pcbs_examined += u64::from(lookup.examined);
        self.recorder
            .demux_lookup(lookup.examined, lookup.pcb.is_some(), lookup.cache_hit);

        if let Some(id) = lookup.pcb {
            self.stats.demux_hits += 1;
            let result = self.process_segment(id, key, tcp, payload);
            return RxResult {
                pcbs_examined: lookup.examined,
                ..result
            };
        }

        // No connection: try the listeners for a SYN.
        if tcp.flags.contains(TcpFlags::SYN) && !tcp.flags.contains(TcpFlags::ACK) {
            let matched = self
                .listeners
                .iter()
                .enumerate()
                .filter(|(_, l)| l.key.matches(key))
                .max_by_key(|(_, l)| l.key.specificity())
                .map(|(i, _)| i);
            if let Some(idx) = matched {
                if self.listeners[idx].pending() >= self.listeners[idx].backlog {
                    // Backlog full: drop the SYN silently; the client
                    // will retransmit (BSD semantics).
                    self.stats.syn_drops += 1;
                    return RxResult {
                        outcome: RxOutcome::SynDropped,
                        replies: Vec::new(),
                        pcbs_examined: lookup.examined,
                    };
                }
                self.stats.listener_hits += 1;
                let result = self.accept_syn(key, tcp, idx);
                return RxResult {
                    pcbs_examined: lookup.examined,
                    ..result
                };
            }
        }

        // Nothing matched: RST (unless the offender is itself an RST).
        if tcp.flags.contains(TcpFlags::RST) {
            self.stats.unmatched_resets += 1;
            return RxResult {
                outcome: RxOutcome::ResetSent,
                replies: Vec::new(),
                pcbs_examined: lookup.examined,
            };
        }
        self.stats.resets_sent += 1;
        let rst = self.make_rst(key, tcp, payload.len());
        RxResult {
            outcome: RxOutcome::ResetSent,
            replies: vec![rst],
            pcbs_examined: lookup.examined,
        }
    }

    fn accept_syn(&mut self, key: &ConnectionKey, tcp: &TcpRepr, listener_idx: usize) -> RxResult {
        let mut pcb = Pcb::new_in_state(*key, TcpState::Listen);
        pcb.on_event(TcpEvent::RecvSyn).expect("LISTEN accepts SYN");
        let iss = self.alloc_iss();
        pcb.init_send(iss, self.config.window.advertise);
        // Our receive window is what *we* advertise; the peer's SYN
        // window seeds SND.WND (what we may send them).
        pcb.init_recv(SeqNum(tcp.seq), self.config.window.advertise);
        pcb.snd.wnd = tcp.window;
        pcb.cong = CongestionState::new(self.config.window.initial_cwnd);
        pcb.mss = tcp.mss.unwrap_or(Pcb::DEFAULT_MSS).min(self.config.mss);
        pcb.note_segment_in(0);
        let id = self.arena.insert(pcb);
        self.demux.insert(*key, id);
        self.recorder.event(Event::ConnOpen);
        self.sockets.insert(id, SocketBuffer::new());
        self.listeners[listener_idx].embryonic += 1;
        self.listener_of.insert(id, listener_idx);

        let synack = TcpRepr {
            src_port: key.local_port,
            dst_port: key.remote_port,
            seq: iss.raw(),
            ack: tcp.seq.wrapping_add(1),
            flags: TcpFlags::SYN | TcpFlags::ACK,
            window: self.config.window.advertise,
            mss: Some(self.config.mss),
            window_scale: None,
        };
        let frame = self.emit_tcp(key, &synack, b"");
        // The SYN-ACK occupies one sequence number; retransmit until the
        // handshake-completing ACK arrives.
        self.track_segment(id, key, iss, iss + 1, synack.flags, synack.mss, b"", false);
        RxResult {
            outcome: RxOutcome::NewConnection { pcb: id },
            replies: vec![frame],
            pcbs_examined: 0,
        }
    }

    fn make_rst(&mut self, key: &ConnectionKey, tcp: &TcpRepr, payload_len: usize) -> Vec<u8> {
        // RFC 793: if the offending segment has ACK, the RST carries its
        // ack as seq; otherwise seq 0 with ACK covering the segment.
        let repr = if tcp.flags.contains(TcpFlags::ACK) {
            TcpRepr {
                src_port: key.local_port,
                dst_port: key.remote_port,
                seq: tcp.ack,
                ack: 0,
                flags: TcpFlags::RST,
                window: 0,
                ..TcpRepr::default()
            }
        } else {
            TcpRepr {
                src_port: key.local_port,
                dst_port: key.remote_port,
                seq: 0,
                ack: tcp.seq.wrapping_add(tcp.segment_len(payload_len)),
                flags: TcpFlags::RST | TcpFlags::ACK,
                window: 0,
                ..TcpRepr::default()
            }
        };
        self.emit_tcp(key, &repr, b"")
    }

    fn make_ack(&mut self, key: &ConnectionKey, pcb: PcbId) -> Vec<u8> {
        // Recompute the advertised window from current socket occupancy
        // (a slow reader shrinks it, draining reads re-grow it) and keep
        // rcv.wnd in sync with what actually went on the wire.
        let window = self.advertised_window(pcb);
        let (seq, ack) = {
            let p = self.arena.get_mut(pcb).expect("acking a live connection");
            p.rcv.wnd = window;
            (p.snd.nxt, p.rcv.nxt)
        };
        let repr = TcpRepr {
            src_port: key.local_port,
            dst_port: key.remote_port,
            seq: seq.raw(),
            ack: ack.raw(),
            flags: TcpFlags::ACK,
            window,
            ..TcpRepr::default()
        };
        self.emit_tcp(key, &repr, b"")
    }

    /// A pure ACK just went on the wire: clear the delayed-ACK debt and
    /// cancel any armed ack timer.
    fn note_ack_emitted(&mut self, pcb: PcbId) {
        if let Some(state) = self.delayed.get_mut(&pcb) {
            state.pending = 0;
            if let Some(timer) = state.timer.take() {
                self.timers.cancel(timer);
            }
        }
    }

    /// Decide whether the in-order data segment just delivered gets an
    /// immediate ACK or a delayed one. Returns the ACK frame to append
    /// to the replies, or `None` when the ACK is deferred to the every-N
    /// threshold / the ack timer.
    fn ack_for_delivery(
        &mut self,
        pcb: PcbId,
        key: &ConnectionKey,
        force: bool,
    ) -> Option<Vec<u8>> {
        let Some(ticks) = self.config.window.delayed_ack_ticks else {
            return Some(self.make_ack(key, pcb));
        };
        let every = self.config.window.ack_every.max(1);
        let ack_now = {
            let state = self.delayed.entry(pcb).or_default();
            state.pending += 1;
            force || state.pending >= every
        };
        if ack_now {
            let frame = self.make_ack(key, pcb);
            self.note_ack_emitted(pcb);
            self.recorder.event(Event::DelayedAck);
            return Some(frame);
        }
        let state = self.delayed.entry(pcb).or_default();
        if state.timer.is_none() {
            state.timer = Some(
                self.timers
                    .schedule(ticks, TimerEvent::DelayedAck(pcb, *key)),
            );
        }
        None
    }

    fn process_segment(
        &mut self,
        id: PcbId,
        key: &ConnectionKey,
        tcp: &TcpRepr,
        payload: &[u8],
    ) -> RxResult {
        let no_reply = |outcome| RxResult {
            outcome,
            replies: Vec::new(),
            pcbs_examined: 0,
        };

        // RST: tear down unconditionally (sequence validation of RSTs is
        // out of scope for the lookup study).
        if tcp.flags.contains(TcpFlags::RST) {
            self.reclaim(id, key, CloseCause::Reset);
            return no_reply(RxOutcome::ResetReceived);
        }

        let state = self
            .arena
            .get(id)
            .expect("demux returned a live id")
            .state();

        // Handshake progress.
        match state {
            TcpState::SynSent => {
                if tcp.flags.contains(TcpFlags::SYN) && tcp.flags.contains(TcpFlags::ACK) {
                    {
                        let advertise = self.config.window.advertise;
                        let p = self.arena.get_mut(id).unwrap();
                        p.on_event(TcpEvent::RecvSynAck).expect("SYN-SENT");
                        p.init_recv(SeqNum(tcp.seq), advertise);
                        p.snd.una = SeqNum(tcp.ack);
                        p.snd.wnd = tcp.window;
                        if let Some(mss) = tcp.mss {
                            p.mss = p.mss.min(mss);
                        }
                        p.note_segment_in(0);
                    }
                    // The SYN-ACK acknowledges our SYN: retire it.
                    self.on_ack(id, key, SeqNum(tcp.ack));
                    let ack = self.make_ack(key, id);
                    return RxResult {
                        outcome: RxOutcome::Established { pcb: id },
                        replies: vec![ack],
                        pcbs_examined: 0,
                    };
                }
                if tcp.flags.contains(TcpFlags::SYN) {
                    // Simultaneous open.
                    {
                        let p = self.arena.get_mut(id).unwrap();
                        p.on_event(TcpEvent::RecvSyn).expect("SYN-SENT");
                        p.init_recv(SeqNum(tcp.seq), tcp.window);
                        p.note_segment_in(0);
                    }
                    let ack = self.make_ack(key, id);
                    return RxResult {
                        outcome: RxOutcome::NewConnection { pcb: id },
                        replies: vec![ack],
                        pcbs_examined: 0,
                    };
                }
                return no_reply(RxOutcome::Duplicate { pcb: id });
            }
            TcpState::SynReceived => {
                if tcp.flags.contains(TcpFlags::ACK)
                    && SeqNum(tcp.ack) == self.arena.get(id).unwrap().snd.nxt
                {
                    {
                        let p = self.arena.get_mut(id).unwrap();
                        p.on_event(TcpEvent::RecvAck).expect("SYN-RECEIVED");
                        p.snd.una = SeqNum(tcp.ack);
                        p.snd.wnd = tcp.window;
                        p.note_segment_in(0);
                    }
                    // The ACK covers our SYN-ACK: retire it.
                    self.on_ack(id, key, SeqNum(tcp.ack));
                    // The handshake completed: from embryonic to the
                    // listener's accept queue.
                    if let Some(&idx) = self.listener_of.get(&id) {
                        self.listeners[idx].embryonic -= 1;
                        self.listeners[idx].accept_queue.push_back(id);
                    }
                    // Fall through: the ACK may carry data too.
                    if payload.is_empty() && !tcp.flags.contains(TcpFlags::FIN) {
                        return no_reply(RxOutcome::Established { pcb: id });
                    }
                } else if tcp.flags.contains(TcpFlags::SYN) {
                    // Retransmitted SYN: re-send the SYN-ACK. The queued
                    // SYN-ACK has now effectively been retransmitted, so
                    // Karn's rule disqualifies it from RTT sampling.
                    if let Some(queue) = self.retx.get_mut(&id) {
                        for seg in queue.segments.iter_mut() {
                            seg.retransmitted = true;
                        }
                    }
                    let p = self.arena.get(id).unwrap();
                    let synack = TcpRepr {
                        src_port: key.local_port,
                        dst_port: key.remote_port,
                        seq: p.snd.iss.raw(),
                        ack: p.rcv.nxt.raw(),
                        flags: TcpFlags::SYN | TcpFlags::ACK,
                        window: p.rcv.wnd,
                        mss: Some(self.config.mss),
                        window_scale: None,
                    };
                    let frame = self.emit_tcp(key, &synack, b"");
                    return RxResult {
                        outcome: RxOutcome::Duplicate { pcb: id },
                        replies: vec![frame],
                        pcbs_examined: 0,
                    };
                }
            }
            _ => {
                // A stray SYN or SYN-ACK on a synchronized connection is
                // the peer retransmitting its half of the handshake — our
                // handshake-completing ACK was lost. Re-acknowledge, or
                // the peer retries into its RTO abort for nothing.
                if tcp.flags.contains(TcpFlags::SYN) {
                    let ack = self.make_ack(key, id);
                    return RxResult {
                        outcome: RxOutcome::Duplicate { pcb: id },
                        replies: vec![ack],
                        pcbs_examined: 0,
                    };
                }
            }
        }

        // In-order check for data/FIN segments.
        let seg_len = payload.len() as u32 + u32::from(tcp.flags.contains(TcpFlags::FIN));
        if seg_len > 0 {
            let rcv_nxt = self.arena.get(id).unwrap().rcv.nxt;
            if SeqNum(tcp.seq) != rcv_nxt {
                self.stats.out_of_order_drops += 1;
                let ack = self.make_ack(key, id);
                return RxResult {
                    outcome: RxOutcome::Duplicate { pcb: id },
                    replies: vec![ack],
                    pcbs_examined: 0,
                };
            }
        }

        // ACK bookkeeping (cumulative), congestion control, and
        // FIN-acknowledgement transitions.
        let mut closed_now = false;
        let mut cc_frames: Vec<Vec<u8>> = Vec::new();
        if tcp.flags.contains(TcpFlags::ACK) {
            let mss = usize::from(self.config.mss);
            let ack = SeqNum(tcp.ack);
            let (advanced, acked_bytes, is_dup, inflight, snd_nxt) = {
                let p = self.arena.get_mut(id).unwrap();
                let advanced = p.snd.una.lt(ack) && ack.le(p.snd.nxt);
                let acked_bytes = if advanced {
                    ack.raw().wrapping_sub(p.snd.una.raw()) as usize
                } else {
                    0
                };
                // RFC 5681 duplicate ACK: no data, no SYN/FIN, no window
                // update, ack == SND.UNA, with data outstanding.
                let is_dup = !advanced
                    && ack == p.snd.una
                    && payload.is_empty()
                    && !tcp.flags.contains(TcpFlags::SYN)
                    && !tcp.flags.contains(TcpFlags::FIN)
                    && p.snd.wnd == tcp.window
                    && p.snd.una.lt(p.snd.nxt);
                if advanced {
                    p.snd.una = ack;
                }
                p.snd.wnd = tcp.window;
                let inflight = p.snd.nxt.raw().wrapping_sub(p.snd.una.raw()) as usize;
                (advanced, acked_bytes, is_dup, inflight, p.snd.nxt)
            };
            if advanced {
                // Retire covered segments and service the RTO timer.
                self.on_ack(id, key, ack);
                let (action, in_fast_recovery) = {
                    let p = self.arena.get_mut(id).unwrap();
                    let mut st = p.cong;
                    let action = self.cc.on_ack(&mut st, acked_bytes, ack, mss);
                    p.cong = st;
                    (action, st.in_recovery)
                };
                self.observe_cwnd(id);
                if matches!(action, CcAction::RetransmitHead) {
                    // NewReno partial ACK (fast recovery) or ACK-paced
                    // go-back-N (RTO recovery): re-emit the new head.
                    if let Some(frame) = self.retransmit_head(id, key, in_fast_recovery, 0) {
                        cc_frames.push(frame);
                    }
                }
            } else if is_dup {
                let (action, dup_acks) = {
                    let p = self.arena.get_mut(id).unwrap();
                    let mut st = p.cong;
                    let action = self.cc.on_dup_ack(&mut st, inflight, snd_nxt, mss);
                    let dup_acks = st.dup_acks;
                    p.cong = st;
                    (action, dup_acks)
                };
                self.observe_cwnd(id);
                if matches!(action, CcAction::RetransmitHead) {
                    if let Some(frame) = self.retransmit_head(id, key, true, dup_acks) {
                        cc_frames.push(frame);
                    }
                }
            }
            // An ACK may have reopened the transmit window: requeue any
            // buffered data for the next poll.
            if self.sendbufs.get(&id).is_some_and(|b| !b.is_empty()) {
                self.mark_tx_pending(id);
            }
            let p = self.arena.get_mut(id).unwrap();
            // Does this acknowledge our FIN?
            let fin_acked = ack == p.snd.nxt;
            match p.state() {
                TcpState::FinWait1 if fin_acked => {
                    p.on_event(TcpEvent::RecvAck).expect("FIN-WAIT-1");
                }
                TcpState::Closing if fin_acked => {
                    p.on_event(TcpEvent::RecvAck).expect("CLOSING");
                    closed_now = true; // TIME-WAIT; we reclaim below via timer-less model
                }
                TcpState::LastAck if fin_acked => {
                    p.on_event(TcpEvent::RecvAck).expect("LAST-ACK");
                    closed_now = true;
                }
                _ => {}
            }
        }
        if closed_now {
            match self.arena.get(id).unwrap().state() {
                TcpState::Closed => {
                    self.reclaim(id, key, CloseCause::Graceful);
                    return no_reply(RxOutcome::Closed);
                }
                TcpState::TimeWait => {
                    return if self.enter_time_wait(id, key) {
                        no_reply(RxOutcome::Closed)
                    } else {
                        no_reply(RxOutcome::TimeWait { pcb: id })
                    };
                }
                _ => {}
            }
        }

        // Payload delivery, bounded by the receive buffer: a segment
        // that does not fit is dropped un-ACKed (the shrunken — possibly
        // zero — window in our ACK tells the peer to back off; the data
        // is retransmitted once the reader drains the socket).
        let mut delivered = 0usize;
        let mut overrun = false;
        if !payload.is_empty() {
            let room = {
                let occupancy = self.sockets.get(&id).map_or(0, |s| s.available());
                self.config.window.recv_buffer.saturating_sub(occupancy)
            };
            let p = self.arena.get_mut(id).unwrap();
            if p.state().can_transfer_data() {
                if payload.len() <= room {
                    p.rcv.nxt += payload.len() as u32;
                    p.note_segment_in(payload.len());
                    delivered = payload.len();
                    self.stats.bytes_delivered += payload.len() as u64;
                    self.sockets.entry(id).or_default().deliver(payload);
                } else {
                    overrun = true;
                }
            }
        }
        if overrun {
            let ack = self.make_ack(key, id);
            let mut replies = cc_frames;
            replies.push(ack);
            return RxResult {
                outcome: RxOutcome::Duplicate { pcb: id },
                replies,
                pcbs_examined: 0,
            };
        }

        // FIN processing.
        let mut peer_closed = false;
        if tcp.flags.contains(TcpFlags::FIN) {
            let p = self.arena.get_mut(id).unwrap();
            if p.on_event(TcpEvent::RecvFin).is_ok() {
                p.rcv.nxt += 1;
                peer_closed = true;
                if let Some(sock) = self.sockets.get_mut(&id) {
                    sock.mark_fin();
                }
            }
        }

        if delivered > 0 || peer_closed {
            // FIN (and anything alongside it) is acknowledged at once;
            // plain in-order data may owe a delayed ACK instead.
            let ack = if peer_closed {
                let frame = self.make_ack(key, id);
                self.note_ack_emitted(id);
                Some(frame)
            } else {
                self.ack_for_delivery(id, key, false)
            };
            let outcome = if peer_closed {
                if matches!(
                    self.arena.get(id).map(|p| p.state()),
                    Some(TcpState::TimeWait)
                ) {
                    if self.enter_time_wait(id, key) {
                        RxOutcome::Closed
                    } else {
                        RxOutcome::TimeWait { pcb: id }
                    }
                } else {
                    RxOutcome::PeerClosed { pcb: id }
                }
            } else {
                RxOutcome::Delivered {
                    pcb: id,
                    bytes: delivered,
                }
            };
            let mut replies = cc_frames;
            replies.extend(ack);
            return RxResult {
                outcome,
                replies,
                pcbs_examined: 0,
            };
        }

        RxResult {
            outcome: RxOutcome::AckProcessed { pcb: id },
            replies: cc_frames,
            pcbs_examined: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpdemux_core::BsdDemux;

    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn pair() -> (Stack, Stack) {
        let server =
            Stack::with_config(StackConfig::new(SERVER).with_demux(|| Box::new(BsdDemux::new())));
        let client =
            Stack::with_config(StackConfig::new(CLIENT).with_demux(|| Box::new(BsdDemux::new())));
        (server, client)
    }

    /// Run the three-way handshake; returns (client_pcb, server_pcb).
    fn handshake(server: &mut Stack, client: &mut Stack, port: u16) -> (PcbId, PcbId) {
        server.listen(port).unwrap();
        let (client_pcb, syn) = client.connect(SERVER, port).unwrap();
        let r1 = server.receive(&syn).unwrap();
        let server_pcb = match r1.outcome {
            RxOutcome::NewConnection { pcb } => pcb,
            other => panic!("expected NewConnection, got {other:?}"),
        };
        let r2 = client.receive(&r1.replies[0]).unwrap();
        assert!(matches!(r2.outcome, RxOutcome::Established { .. }));
        let r3 = server.receive(&r2.replies[0]).unwrap();
        assert!(matches!(r3.outcome, RxOutcome::Established { .. }));
        (client_pcb, server_pcb)
    }

    /// Enqueue `payload` and poll it onto the wire as exactly one frame
    /// — the small-payload idiom most tests want.
    fn send_now(stack: &mut Stack, pcb: PcbId, payload: &[u8]) -> Vec<u8> {
        let accepted = stack.send(pcb, payload).unwrap();
        assert_eq!(accepted, payload.len(), "send buffer accepted all of it");
        let mut scratch = TxScratch::new();
        let n = stack.poll_transmit(&mut scratch);
        assert_eq!(n, 1, "one small payload polls as one frame");
        scratch.frames.pop().unwrap()
    }

    #[test]
    fn front_filter_config_wraps_the_demux_and_zeroes_miss_cost() {
        const OTHER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
        let mut server = Stack::with_config(StackConfig::new(SERVER).with_front_filter());
        let mut client = Stack::with_config(StackConfig::new(CLIENT));
        let (cp, sp) = handshake(&mut server, &mut client, 1521);
        let frame = send_now(&mut client, cp, b"front");
        let r = server.receive(&frame).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Delivered { pcb, bytes: 5 } if pcb == sp));
        assert!(
            r.pcbs_examined >= 1,
            "hits flow through to the backing tier"
        );

        // A data frame for a four-tuple this server never established:
        // the filter rejects it before any PCB chain is walked, so the
        // per-frame examined count is zero (the unfiltered default
        // would walk a Sequent chain to conclude the same miss).
        let mut shadow_server = Stack::with_config(StackConfig::new(SERVER));
        let mut other_client = Stack::with_config(StackConfig::new(OTHER));
        let (op, _) = handshake(&mut shadow_server, &mut other_client, 1521);
        let stray = send_now(&mut other_client, op, b"stray");
        let r = server.receive(&stray).unwrap();
        assert!(matches!(r.outcome, RxOutcome::ResetSent));
        assert_eq!(r.pcbs_examined, 0, "miss rejected by the front filter");
    }

    #[test]
    fn three_way_handshake() {
        let (mut server, mut client) = pair();
        let (cp, sp) = handshake(&mut server, &mut client, 1521);
        assert!(client.is_established(cp));
        assert!(server.is_established(sp));
        assert_eq!(server.connection_count(), 1);
        assert_eq!(client.connection_count(), 1);
        assert_eq!(server.stats().stack.listener_hits, 1);
    }

    #[test]
    fn data_transfer_both_directions() {
        let (mut server, mut client) = pair();
        let (cp, sp) = handshake(&mut server, &mut client, 1521);

        // Client -> server.
        let frame = send_now(&mut client, cp, b"BEGIN TRANSACTION");
        let r = server.receive(&frame).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Delivered { bytes: 17, .. }));
        assert_eq!(
            server.socket_mut(sp).unwrap().read_all(),
            b"BEGIN TRANSACTION"
        );
        // The ACK flows back.
        let r = client.receive(&r.replies[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::AckProcessed { .. }));

        // Server -> client.
        let frame = send_now(&mut server, sp, b"OK");
        let r = client.receive(&frame).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Delivered { bytes: 2, .. }));
        assert_eq!(client.socket_mut(cp).unwrap().read_all(), b"OK");
        server.receive(&r.replies[0]).unwrap();

        // Sequence spaces stayed consistent.
        assert_eq!(server.stats().stack.bytes_delivered, 17);
        assert_eq!(client.stats().stack.bytes_delivered, 2);
        assert_eq!(server.stats().stack.out_of_order_drops, 0);
    }

    #[test]
    fn retransmitted_data_is_dropped_and_reacked() {
        let (mut server, mut client) = pair();
        let (cp, _sp) = handshake(&mut server, &mut client, 80);
        let frame = send_now(&mut client, cp, b"hello");
        let r1 = server.receive(&frame).unwrap();
        assert!(matches!(r1.outcome, RxOutcome::Delivered { .. }));
        // Deliver the same frame again (a retransmission).
        let r2 = server.receive(&frame).unwrap();
        assert!(matches!(r2.outcome, RxOutcome::Duplicate { .. }));
        assert_eq!(r2.replies.len(), 1, "duplicate is re-acked");
        assert_eq!(server.stats().stack.out_of_order_drops, 1);
        assert_eq!(
            server.stats().stack.bytes_delivered,
            5,
            "no double delivery"
        );
    }

    #[test]
    fn graceful_close_both_sides() {
        let (mut server, mut client) = pair();
        let (cp, sp) = handshake(&mut server, &mut client, 80);

        // Client closes.
        let fin = client.close(cp).unwrap();
        assert_eq!(client.state(cp), Some(TcpState::FinWait1));
        let r = server.receive(&fin).unwrap();
        assert!(matches!(r.outcome, RxOutcome::PeerClosed { .. }));
        assert_eq!(server.state(sp), Some(TcpState::CloseWait));
        let r = client.receive(&r.replies[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::AckProcessed { .. }));
        assert_eq!(client.state(cp), Some(TcpState::FinWait2));

        // Server closes.
        let fin2 = server.close(sp).unwrap();
        assert_eq!(server.state(sp), Some(TcpState::LastAck));
        let r = client.receive(&fin2).unwrap();
        // Client reaches TIME-WAIT and (timer-free) reclaims immediately.
        assert!(matches!(r.outcome, RxOutcome::Closed));
        assert_eq!(client.connection_count(), 0);
        let r = server.receive(&r.replies[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Closed));
        assert_eq!(server.connection_count(), 0);
    }

    #[test]
    fn segment_to_unknown_connection_gets_rst() {
        let (mut server, mut client) = pair();
        // No listener, no connection: a data segment out of nowhere.
        let (cp, _syn) = client.connect(SERVER, 9999).unwrap();
        // Pretend established so we can fabricate a data segment.
        let frame = {
            let key = client.arena.get(cp).unwrap().key();
            let repr = TcpRepr {
                src_port: key.local_port,
                dst_port: 9999,
                seq: 1,
                ack: 1,
                flags: TcpFlags::ACK | TcpFlags::PSH,
                window: 100,
                ..TcpRepr::default()
            };
            client.emit_tcp(&key, &repr, b"ghost")
        };
        let r = server.receive(&frame).unwrap();
        assert!(matches!(r.outcome, RxOutcome::ResetSent));
        assert_eq!(r.replies.len(), 1);
        assert_eq!(server.stats().stack.resets_sent, 1);

        // The RST comes back and kills the half-open client connection.
        let r = client.receive(&r.replies[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::ResetReceived));
        assert_eq!(client.connection_count(), 0);
    }

    #[test]
    fn syn_to_closed_port_gets_rst() {
        let (mut server, mut client) = pair();
        let (_cp, syn) = client.connect(SERVER, 7).unwrap();
        let r = server.receive(&syn).unwrap();
        assert!(matches!(r.outcome, RxOutcome::ResetSent));
    }

    #[test]
    fn frames_for_other_hosts_are_ignored() {
        let (mut server, mut client) = pair();
        let (_cp, syn) = client.connect(Ipv4Addr::new(10, 0, 0, 99), 80).unwrap();
        let r = server.receive(&syn).unwrap();
        assert!(matches!(r.outcome, RxOutcome::NotForUs));
        assert_eq!(server.stats().stack.not_for_us, 1);
        assert_eq!(server.stats().stack.resets_sent, 0);
    }

    #[test]
    fn corrupted_frame_rejected_before_demux() {
        let (mut server, mut client) = pair();
        let (_cp, syn) = client.connect(SERVER, 80).unwrap();
        server.listen(80).unwrap();
        let mut bad = syn.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        let lookups_before = server.stats().demux.lookups;
        let err = server.receive(&bad).unwrap_err();
        assert_eq!(err, WireError::BadChecksum);
        assert_eq!(server.stats().stack.tcp_errors, 1);
        assert_eq!(
            server.stats().demux.lookups,
            lookups_before,
            "corrupted frames must not reach the demultiplexer"
        );
    }

    #[test]
    fn truncated_frame_counted_as_ip_error() {
        let (mut server, _client) = pair();
        let err = server.receive(&[0x45, 0x00]).unwrap_err();
        assert_eq!(err, WireError::Truncated);
        assert_eq!(server.stats().stack.ip_errors, 1);
    }

    #[test]
    fn unknown_protocol_counted() {
        let (mut server, _client) = pair();
        // Hand-build an IPv4 header claiming protocol 89 (OSPF).
        let ip = Ipv4Repr {
            src_addr: CLIENT,
            dst_addr: SERVER,
            protocol: IpProtocol::Unknown(89),
            payload_len: 0,
            ttl: 64,
        };
        let mut buf = vec![0u8; 20];
        let mut packet = Ipv4Packet::new_unchecked(&mut buf[..]);
        ip.emit(&mut packet).unwrap();
        let r = server.receive(&buf).unwrap();
        assert!(matches!(r.outcome, RxOutcome::UnhandledProtocol));
        assert_eq!(server.stats().stack.bad_protocol, 1);
    }

    #[test]
    fn connected_udp_demuxes_and_delivers() {
        let (mut server, mut client) = pair();
        let server_sock = server.udp_open(53, CLIENT, 5353).unwrap();
        let client_sock = client.udp_open(5353, SERVER, 53).unwrap();
        let frame = client.udp_send(client_sock, b"query").unwrap();
        let r = server.receive(&frame).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Delivered { bytes: 5, .. }));
        assert!(r.pcbs_examined >= 1);
        assert_eq!(server.socket_mut(server_sock).unwrap().read_all(), b"query");
    }

    #[test]
    fn unconnected_udp_uses_wildcard_path() {
        let (mut server, mut client) = pair();
        server.udp_bind(514).unwrap();
        let sock = client.udp_open(40_000, SERVER, 514).unwrap();
        let frame = client.udp_send(sock, b"log line").unwrap();
        let r = server.receive(&frame).unwrap();
        assert!(matches!(
            r.outcome,
            RxOutcome::DeliveredUnconnected { bytes: 8 }
        ));
        assert_eq!(server.stats().stack.listener_hits, 1);
    }

    #[test]
    fn udp_to_unbound_port_is_unreachable() {
        let (mut server, mut client) = pair();
        let sock = client.udp_open(40_000, SERVER, 9).unwrap();
        let frame = client.udp_send(sock, b"discard").unwrap();
        let r = server.receive(&frame).unwrap();
        assert!(matches!(r.outcome, RxOutcome::UdpUnreachable));
    }

    #[test]
    fn listen_twice_fails() {
        let (mut server, _client) = pair();
        server.listen(80).unwrap();
        assert_eq!(server.listen(80), Err(StackError::PortInUse(80)));
        server.udp_bind(80).unwrap(); // UDP namespace is separate
        assert_eq!(server.udp_bind(80), Err(StackError::PortInUse(80)));
    }

    #[test]
    fn ephemeral_ports_are_distinct() {
        let (_server, mut client) = pair();
        let (a, _) = client.connect(SERVER, 80).unwrap();
        let (b, _) = client.connect(SERVER, 80).unwrap();
        let ka = client.arena.get(a).unwrap().key();
        let kb = client.arena.get(b).unwrap().key();
        assert_ne!(ka.local_port, kb.local_port);
    }

    #[test]
    fn send_on_unestablished_connection_fails() {
        let (_server, mut client) = pair();
        let (cp, _syn) = client.connect(SERVER, 80).unwrap();
        assert_eq!(client.send(cp, b"x"), Err(StackError::NotEstablished));
    }

    #[test]
    fn abort_sends_rst_and_reclaims() {
        let (mut server, mut client) = pair();
        let (cp, sp) = handshake(&mut server, &mut client, 80);
        let rst = client.abort(cp).unwrap();
        assert_eq!(client.connection_count(), 0);
        let r = server.receive(&rst).unwrap();
        assert!(matches!(r.outcome, RxOutcome::ResetReceived));
        assert_eq!(server.connection_count(), 0);
        let _ = sp;
    }

    #[test]
    fn retransmitted_syn_gets_synack_again() {
        let (mut server, mut client) = pair();
        server.listen(80).unwrap();
        let (_cp, syn) = client.connect(SERVER, 80).unwrap();
        let r1 = server.receive(&syn).unwrap();
        assert!(matches!(r1.outcome, RxOutcome::NewConnection { .. }));
        // The same SYN again (client timed out): a fresh SYN-ACK.
        let r2 = server.receive(&syn).unwrap();
        assert!(matches!(r2.outcome, RxOutcome::Duplicate { .. }));
        assert_eq!(r2.replies.len(), 1);
        // Both SYN-ACKs carry the same ISS.
        let seg1 = TcpSegment::new_checked(
            Ipv4Packet::new_checked(&r1.replies[0][..])
                .unwrap()
                .payload()
                .to_vec(),
        )
        .unwrap();
        let seg2 = TcpSegment::new_checked(
            Ipv4Packet::new_checked(&r2.replies[0][..])
                .unwrap()
                .payload()
                .to_vec(),
        )
        .unwrap();
        assert_eq!(seg1.seq(), seg2.seq());
    }

    /// Pair with real TIME-WAIT enabled on the client side.
    fn pair_with_time_wait(ticks: u64) -> (Stack, Stack) {
        let server =
            Stack::with_config(StackConfig::new(SERVER).with_demux(|| Box::new(BsdDemux::new())));
        let client = Stack::with_config(
            StackConfig::new(CLIENT)
                .with_time_wait(ticks)
                .with_demux(|| Box::new(BsdDemux::new())),
        );
        (server, client)
    }

    #[test]
    fn time_wait_holds_connection_until_2msl() {
        let (mut server, mut client) = pair_with_time_wait(120_000);
        let (cp, sp) = handshake(&mut server, &mut client, 80);

        // Active close from the client, then the server's FIN.
        let fin = client.close(cp).unwrap();
        let r = server.receive(&fin).unwrap();
        client.receive(&r.replies[0]).unwrap();
        let fin2 = server.close(sp).unwrap();
        let r = client.receive(&fin2).unwrap();
        // With timers on, the client parks in TIME-WAIT instead of
        // reclaiming.
        assert!(matches!(r.outcome, RxOutcome::TimeWait { .. }));
        assert_eq!(client.state(cp), Some(TcpState::TimeWait));
        assert_eq!(client.connection_count(), 1);
        assert_eq!(client.time_wait_count(), 1);
        server.receive(&r.replies[0]).unwrap();

        // A retransmitted FIN during TIME-WAIT is re-acknowledged.
        let r = client.receive(&fin2).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Duplicate { .. }));
        assert_eq!(r.replies.len(), 1);

        // Before 2MSL: still parked. After: reclaimed.
        assert_eq!(client.advance_time(119_999).reclaimed, 0);
        assert_eq!(client.connection_count(), 1);
        assert_eq!(client.advance_time(120_000).reclaimed, 1);
        assert_eq!(client.connection_count(), 0);
        assert_eq!(client.time_wait_count(), 0);
    }

    #[test]
    fn time_wait_timer_is_stale_safe_after_rst() {
        let (mut server, mut client) = pair_with_time_wait(1000);
        let (cp, sp) = handshake(&mut server, &mut client, 80);
        // Drive the client into TIME-WAIT.
        let fin = client.close(cp).unwrap();
        let r = server.receive(&fin).unwrap();
        client.receive(&r.replies[0]).unwrap();
        let fin2 = server.close(sp).unwrap();
        let r = client.receive(&fin2).unwrap();
        assert!(matches!(r.outcome, RxOutcome::TimeWait { .. }));
        // An RST lands during TIME-WAIT and reclaims immediately.
        let rst_frame = {
            // Rebuild a valid RST from the server's (now closed) side by
            // aborting a reconstructed connection is overkill: craft one.
            let key = ConnectionKey::new(
                CLIENT,
                {
                    // client's ephemeral port: recover from its PCB
                    client.arena.get(cp).unwrap().key().local_port
                },
                SERVER,
                80,
            )
            .reversed();
            let repr = TcpRepr {
                src_port: key.local_port,
                dst_port: key.remote_port,
                seq: 0,
                ack: 0,
                flags: TcpFlags::RST,
                window: 0,
                ..TcpRepr::default()
            };
            server.emit_tcp(&key, &repr, b"")
        };
        let r = client.receive(&rst_frame).unwrap();
        assert!(matches!(r.outcome, RxOutcome::ResetReceived));
        assert_eq!(client.connection_count(), 0);
        // The parked timer fires later against a recycled-or-dead slot;
        // the generation check must make it a no-op, not a panic or a
        // wrong-connection reclaim.
        assert_eq!(client.advance_time(1000).reclaimed, 0);
    }

    #[test]
    fn timer_free_mode_reclaims_immediately() {
        // The default config (time_wait_ticks: None) must behave exactly
        // as before: reaching TIME-WAIT reclaims at once.
        let (mut server, mut client) = pair();
        let (cp, sp) = handshake(&mut server, &mut client, 80);
        let fin = client.close(cp).unwrap();
        let r = server.receive(&fin).unwrap();
        client.receive(&r.replies[0]).unwrap();
        let fin2 = server.close(sp).unwrap();
        let r = client.receive(&fin2).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Closed));
        assert_eq!(client.connection_count(), 0);
    }

    #[test]
    fn ethernet_receive_path() {
        let (mut server, mut client) = pair();
        server.listen(80).unwrap();
        let (_cp, syn) = client.connect(SERVER, 80).unwrap();

        // Properly addressed frame: full handshake step works.
        let framed = client.encapsulate(&syn, SERVER);
        assert!(framed.len() >= 60, "minimum frame size honored");
        let r = server.receive_ethernet(&framed).unwrap();
        assert!(matches!(r.outcome, RxOutcome::NewConnection { .. }));

        // Frame for someone else's MAC: ignored at the link layer.
        let mut wrong = framed.clone();
        wrong[5] ^= 0x01; // dst MAC last byte
        let r = server.receive_ethernet(&wrong).unwrap();
        assert!(matches!(r.outcome, RxOutcome::NotForUs));

        // Broadcast is accepted.
        let mut bcast = framed.clone();
        bcast[..6].copy_from_slice(&[0xff; 6]);
        let r = server.receive_ethernet(&bcast).unwrap();
        // (Duplicate SYN: the connection exists now.)
        assert!(matches!(r.outcome, RxOutcome::Duplicate { .. }));

        // IPv4 bytes relabeled as ARP fail ARP validation.
        let mut arp = framed.clone();
        arp[12] = 0x08;
        arp[13] = 0x06;
        assert!(server.receive_ethernet(&arp).is_err());

        // A genuinely unknown EtherType is counted and dropped.
        let mut ipx = framed.clone();
        ipx[12] = 0x81;
        ipx[13] = 0x37;
        let r = server.receive_ethernet(&ipx).unwrap();
        assert!(matches!(r.outcome, RxOutcome::UnhandledProtocol));
        assert_eq!(server.stats().stack.bad_protocol, 1);

        // Runt frame.
        assert!(server.receive_ethernet(&framed[..10]).is_err());
    }

    #[test]
    fn ethernet_padding_does_not_confuse_ipv4() {
        // A 40-byte pure ACK gets padded to 46 payload bytes; the IPv4
        // total-length field must bound parsing.
        let (mut server, mut client) = pair();
        server.listen(80).unwrap();
        let (_cp, syn) = client.connect(SERVER, 80).unwrap();
        let r1 = server.receive(&syn).unwrap();
        let r2 = client.receive(&r1.replies[0]).unwrap();
        // The handshake-completing ACK is a 40-byte pure ACK frame.
        let frame = &r2.replies[0];
        assert_eq!(frame.len(), 40);
        let framed = client.encapsulate(frame, SERVER);
        let r = server.receive_ethernet(&framed).unwrap();
        assert!(
            matches!(r.outcome, RxOutcome::Established { .. }),
            "{:?}",
            r.outcome
        );
    }

    #[test]
    fn stack_answers_pings() {
        use tcpdemux_wire::IcmpRepr;
        let (mut server, mut client) = pair();
        // Client pings the server.
        let ping = IcmpRepr::EchoRequest {
            ident: 0xbeef,
            seq: 1,
            payload: b"are you there?",
        }
        .emit();
        let frame = client.emit_icmp(SERVER, &ping);
        let r = server.receive(&frame).unwrap();
        assert!(matches!(r.outcome, RxOutcome::EchoReplied));
        assert_eq!(server.stats().stack.icmp_in, 1);
        assert_eq!(server.stats().stack.icmp_echo_replies, 1);

        // The reply makes it back with the payload intact.
        let r = client.receive(&r.replies[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::IcmpProcessed));
        let reply_packet = Ipv4Packet::new_checked(&frame[..]).unwrap();
        let _ = reply_packet;
    }

    #[test]
    fn ping_payload_is_echoed_exactly() {
        use tcpdemux_wire::IcmpRepr;
        let (mut server, mut client) = pair();
        let payload = b"0123456789abcdef";
        let ping = IcmpRepr::EchoRequest {
            ident: 7,
            seq: 42,
            payload,
        }
        .emit();
        let frame = client.emit_icmp(SERVER, &ping);
        let r = server.receive(&frame).unwrap();
        let reply = Ipv4Packet::new_checked(&r.replies[0][..]).unwrap();
        match IcmpRepr::parse(reply.payload()).unwrap() {
            IcmpRepr::EchoReply {
                ident,
                seq,
                payload: echoed,
            } => {
                assert_eq!(ident, 7);
                assert_eq!(seq, 42);
                assert_eq!(echoed, payload);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn udp_unreachable_sends_icmp_quote() {
        use tcpdemux_wire::IcmpRepr;
        let (mut server, mut client) = pair();
        let sock = client.udp_open(40_000, SERVER, 9).unwrap();
        let datagram = client.udp_send(sock, b"discard-me").unwrap();
        let r = server.receive(&datagram).unwrap();
        assert!(matches!(r.outcome, RxOutcome::UdpUnreachable));
        assert_eq!(r.replies.len(), 1, "port-unreachable must be emitted");

        // The ICMP message quotes the offending packet's header + 8 bytes.
        let icmp_packet = Ipv4Packet::new_checked(&r.replies[0][..]).unwrap();
        assert_eq!(icmp_packet.protocol(), IpProtocol::Icmp);
        match IcmpRepr::parse(icmp_packet.payload()).unwrap() {
            IcmpRepr::DestinationUnreachable { code, original } => {
                assert_eq!(code, tcpdemux_wire::icmp::CODE_PORT_UNREACHABLE);
                assert_eq!(original.len(), 28);
                assert_eq!(original[..20], datagram[..20], "quotes the IP header");
            }
            other => panic!("{other:?}"),
        }
        // The client recognizes the unreachable as ICMP traffic.
        let r = client.receive(&r.replies[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::IcmpProcessed));
    }

    #[test]
    fn corrupt_icmp_rejected() {
        use tcpdemux_wire::IcmpRepr;
        let (mut server, mut client) = pair();
        let ping = IcmpRepr::EchoRequest {
            ident: 1,
            seq: 1,
            payload: b"x",
        }
        .emit();
        let mut frame = client.emit_icmp(SERVER, &ping);
        let last = frame.len() - 1;
        frame[last] ^= 0x10;
        assert_eq!(server.receive(&frame).unwrap_err(), WireError::BadChecksum);
        assert_eq!(server.stats().stack.icmp_in, 0);
    }

    #[test]
    fn arp_request_gets_answered_and_learned() {
        use tcpdemux_wire::{ArpRepr, EtherType, EthernetFrame, EthernetRepr};
        let (mut server, client) = pair();

        // The client broadcasts who-has for the server's address.
        let request = ArpRepr::request(client.mac(), CLIENT, SERVER);
        let bytes = request.emit();
        let mut framed = vec![0u8; 14 + bytes.len().max(46)];
        {
            let mut eth = EthernetFrame::new_unchecked(&mut framed[..]);
            EthernetRepr {
                src_addr: client.mac(),
                dst_addr: tcpdemux_wire::EthernetAddress::BROADCAST,
                ethertype: EtherType::Arp,
            }
            .emit(&mut eth)
            .unwrap();
            eth.payload_mut()[..bytes.len()].copy_from_slice(&bytes);
        }

        let r = server.receive_ethernet(&framed).unwrap();
        assert!(matches!(r.outcome, RxOutcome::ArpReplied));
        assert_eq!(r.replies.len(), 1);

        // The reply is a valid is-at for the server, unicast to the client.
        let reply_frame = EthernetFrame::new_checked(&r.replies[0][..]).unwrap();
        assert_eq!(reply_frame.ethertype(), EtherType::Arp);
        assert_eq!(reply_frame.dst_addr(), client.mac());
        let reply = ArpRepr::parse(&reply_frame.payload()[..28]).unwrap();
        assert_eq!(reply.src_ip, SERVER);
        assert_eq!(reply.src_mac, server.mac());
        assert_eq!(reply.dst_ip, CLIENT);

        // The server learned the requester's mapping as a side effect.
        assert_eq!(server.resolve(CLIENT), client.mac());
    }

    #[test]
    fn arp_for_someone_else_learns_but_does_not_reply() {
        use tcpdemux_wire::{ArpRepr, EtherType, EthernetFrame, EthernetRepr};
        let (mut server, client) = pair();
        let other = Ipv4Addr::new(10, 0, 0, 250);
        let request = ArpRepr::request(client.mac(), CLIENT, other);
        let bytes = request.emit();
        let mut framed = vec![0u8; 14 + 46];
        {
            let mut eth = EthernetFrame::new_unchecked(&mut framed[..]);
            EthernetRepr {
                src_addr: client.mac(),
                dst_addr: tcpdemux_wire::EthernetAddress::BROADCAST,
                ethertype: EtherType::Arp,
            }
            .emit(&mut eth)
            .unwrap();
            eth.payload_mut()[..bytes.len()].copy_from_slice(&bytes);
        }
        let r = server.receive_ethernet(&framed).unwrap();
        assert!(matches!(r.outcome, RxOutcome::ArpProcessed));
        assert!(r.replies.is_empty());
        assert_eq!(server.resolve(CLIENT), client.mac(), "still learned");
    }

    #[test]
    fn neighbor_entries_expire_with_time() {
        use tcpdemux_wire::{ArpRepr, EtherType, EthernetFrame, EthernetRepr};
        let (mut server, client) = pair();
        let request = ArpRepr::request(client.mac(), CLIENT, SERVER);
        let bytes = request.emit();
        let mut framed = vec![0u8; 14 + 46];
        {
            let mut eth = EthernetFrame::new_unchecked(&mut framed[..]);
            EthernetRepr {
                src_addr: client.mac(),
                dst_addr: tcpdemux_wire::EthernetAddress::BROADCAST,
                ethertype: EtherType::Arp,
            }
            .emit(&mut eth)
            .unwrap();
            eth.payload_mut()[..bytes.len()].copy_from_slice(&bytes);
        }
        server.receive_ethernet(&framed).unwrap();
        assert_eq!(server.resolve(CLIENT), client.mac());
        // Past the one-minute lifetime the mapping falls back to the
        // derived MAC (same value here — check via the cache directly).
        server.advance_time(crate::neighbor::DEFAULT_LIFETIME + 1);
        assert_eq!(
            server.resolve(CLIENT),
            tcpdemux_wire::EthernetAddress::from_ipv4(CLIENT),
            "expired: falls back to derived MAC"
        );
    }

    /// Connect `n` clients through full handshakes; returns the clients.
    fn connect_n(server: &mut Stack, n: u16, port: u16) -> Vec<(Stack, PcbId)> {
        (0..n)
            .map(|i| {
                let addr = Ipv4Addr::new(10, 9, (i >> 8) as u8, (i & 0xff) as u8);
                let mut c = Stack::with_config(
                    StackConfig::new(addr).with_demux(|| Box::new(BsdDemux::new())),
                );
                let (cp, syn) = c.connect(SERVER, port).unwrap();
                let synack = server.receive(&syn).unwrap().replies;
                let ack = c.receive(&synack[0]).unwrap().replies;
                server.receive(&ack[0]).unwrap();
                (c, cp)
            })
            .collect()
    }

    #[test]
    fn accept_queue_dequeues_in_order() {
        let (mut server, _client) = pair();
        server
            .listen(ListenConfig::port(80).with_backlog(16))
            .unwrap();
        let _clients = connect_n(&mut server, 3, 80);
        assert_eq!(server.accept_queue_len(80), 3);
        let first = server.accept(80).unwrap();
        let second = server.accept(80).unwrap();
        let third = server.accept(80).unwrap();
        assert!(server.accept(80).is_none());
        // FIFO: the client addresses ascend with connection order.
        let addr = |id: PcbId, s: &Stack| s.arena.get(id).unwrap().key().remote_addr;
        assert!(addr(first, &server) < addr(second, &server));
        assert!(addr(second, &server) < addr(third, &server));
        assert_eq!(server.accept_queue_len(80), 0);
    }

    #[test]
    fn backlog_full_drops_syn() {
        let (mut server, _client) = pair();
        server
            .listen(ListenConfig::port(80).with_backlog(2))
            .unwrap();
        // Two connections fill the backlog (established, unaccepted).
        let _clients = connect_n(&mut server, 2, 80);
        // A third SYN is dropped silently.
        let addr = Ipv4Addr::new(10, 9, 9, 9);
        let mut extra =
            Stack::with_config(StackConfig::new(addr).with_demux(|| Box::new(BsdDemux::new())));
        let (_cp, syn) = extra.connect(SERVER, 80).unwrap();
        let r = server.receive(&syn).unwrap();
        assert!(matches!(r.outcome, RxOutcome::SynDropped));
        assert!(r.replies.is_empty(), "silent drop, no SYN-ACK, no RST");
        assert_eq!(server.stats().stack.syn_drops, 1);
        assert_eq!(server.connection_count(), 2);

        // Accepting one frees a slot; the retransmitted SYN now succeeds.
        server.accept(80).unwrap();
        let r = server.receive(&syn).unwrap();
        assert!(matches!(r.outcome, RxOutcome::NewConnection { .. }));
    }

    #[test]
    fn embryonic_connections_count_against_backlog() {
        let (mut server, _client) = pair();
        server
            .listen(ListenConfig::port(80).with_backlog(2))
            .unwrap();
        // Two half-open connections (SYN sent, handshake never finished).
        for i in 0..2u8 {
            let addr = Ipv4Addr::new(10, 9, 0, i);
            let mut c =
                Stack::with_config(StackConfig::new(addr).with_demux(|| Box::new(BsdDemux::new())));
            let (_cp, syn) = c.connect(SERVER, 80).unwrap();
            let r = server.receive(&syn).unwrap();
            assert!(matches!(r.outcome, RxOutcome::NewConnection { .. }));
        }
        assert_eq!(server.accept_queue_len(80), 0, "nothing established yet");
        // Third SYN: dropped, the backlog is consumed by embryos.
        let addr = Ipv4Addr::new(10, 9, 0, 99);
        let mut c =
            Stack::with_config(StackConfig::new(addr).with_demux(|| Box::new(BsdDemux::new())));
        let (_cp, syn) = c.connect(SERVER, 80).unwrap();
        let r = server.receive(&syn).unwrap();
        assert!(matches!(r.outcome, RxOutcome::SynDropped));
    }

    #[test]
    fn dying_embryo_releases_backlog_slot() {
        let (mut server, _client) = pair();
        server
            .listen(ListenConfig::port(80).with_backlog(1))
            .unwrap();
        let addr = Ipv4Addr::new(10, 9, 0, 1);
        let mut c =
            Stack::with_config(StackConfig::new(addr).with_demux(|| Box::new(BsdDemux::new())));
        let (cp, syn) = c.connect(SERVER, 80).unwrap();
        server.receive(&syn).unwrap();
        // The client gives up: RST kills the embryo.
        let rst = c.abort(cp).unwrap();
        let r = server.receive(&rst).unwrap();
        assert!(matches!(r.outcome, RxOutcome::ResetReceived));
        // The slot is free again.
        let addr2 = Ipv4Addr::new(10, 9, 0, 2);
        let mut c2 =
            Stack::with_config(StackConfig::new(addr2).with_demux(|| Box::new(BsdDemux::new())));
        let (_cp2, syn2) = c2.connect(SERVER, 80).unwrap();
        let r = server.receive(&syn2).unwrap();
        assert!(matches!(r.outcome, RxOutcome::NewConnection { .. }));
    }

    #[test]
    fn data_before_accept_is_buffered() {
        let (mut server, _client) = pair();
        server
            .listen(ListenConfig::port(80).with_backlog(4))
            .unwrap();
        let mut clients = connect_n(&mut server, 1, 80);
        let (client, cp) = &mut clients[0];
        let frame = send_now(client, *cp, b"early data");
        let r = server.receive(&frame).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Delivered { .. }));
        // The application accepts afterwards and finds the bytes waiting.
        let sp = server.accept(80).unwrap();
        assert_eq!(server.socket_mut(sp).unwrap().read_all(), b"early data");
    }

    #[test]
    fn zero_backlog_rejected() {
        let (mut server, _client) = pair();
        assert!(server
            .listen(ListenConfig::port(80).with_backlog(0))
            .is_err());
    }

    #[test]
    fn introspection_tables_show_listeners_and_connections() {
        let (mut server, mut client) = pair();
        server
            .listen(ListenConfig::port(1521).with_backlog(8))
            .unwrap();
        server.udp_bind(514).unwrap();
        let (_cp, syn) = client.connect(SERVER, 1521).unwrap();
        server.receive(&syn).unwrap();

        let listeners = server.listener_table();
        assert_eq!(listeners.len(), 2);
        let tcp = listeners
            .iter()
            .find(|l| l.protocol == IpProtocol::Tcp)
            .unwrap();
        assert_eq!((tcp.port, tcp.backlog, tcp.pending), (1521, 8, 1));
        assert!(tcp.to_string().contains("LISTEN (backlog 1/8)"));
        let udp = listeners
            .iter()
            .find(|l| l.protocol == IpProtocol::Udp)
            .unwrap();
        assert_eq!(udp.port, 514);
        assert_eq!(udp.shard, ShardId::default());
        assert!(udp.to_string().contains("udp  sh0"), "{udp}");
        assert!(udp.to_string().contains("*:514"), "{udp}");

        let conns = server.connection_table();
        assert_eq!(conns.len(), 1);
        let row = &conns[0];
        assert_eq!(row.state, TcpState::SynReceived);
        assert_eq!(row.key.remote_addr, CLIENT);
        assert_eq!(row.rx_queued, 0);
        // The SYN-ACK sits unacknowledged on the retransmission queue: one
        // zero-payload in-flight segment.
        assert_eq!((row.tx_queued, row.inflight_segments), (0, 1));
        assert_eq!(row.rto_attempts, 0);
        let line = row.to_string();
        assert!(line.contains("SYN-RECEIVED"), "{line}");
        assert!(line.contains("10.0.0.2:"), "{line}");
    }

    #[test]
    fn demux_cost_is_reported_per_frame() {
        let (mut server, mut client) = pair();
        let (cp, _sp) = handshake(&mut server, &mut client, 80);
        let frame = send_now(&mut client, cp, b"x");
        let r = server.receive(&frame).unwrap();
        assert!(r.pcbs_examined >= 1);
        assert!(server.stats().stack.pcbs_examined >= 1);
        // The SYN's lookup scanned an empty structure (0 examined), so the
        // mean sits below 1 here; it must still be positive.
        assert!(server.stats().stack.mean_pcbs_examined() > 0.0);
    }

    #[test]
    fn config_builders_cover_every_field() {
        let cfg = StackConfig::new(SERVER)
            .with_local_addr(CLIENT)
            .with_window(1024)
            .with_mss(536)
            .with_ephemeral_base(55_555)
            .with_time_wait(7);
        assert_eq!(cfg.local_addr, CLIENT);
        assert_eq!(cfg.window.advertise, 1024);
        assert_eq!(cfg.mss, 536);
        assert_eq!(cfg.ephemeral_base, 55_555);
        assert_eq!(cfg.time_wait_ticks, Some(7));

        // Behavioral: the first active open draws the configured base.
        let mut client = Stack::with_config(
            StackConfig::new(CLIENT)
                .with_ephemeral_base(55_555)
                .with_demux(|| Box::new(BsdDemux::new())),
        );
        let (cp, _syn) = client.connect(SERVER, 80).unwrap();
        assert_eq!(client.arena.get(cp).unwrap().key().local_port, 55_555);
    }

    fn assert_rx_equal(a: &Result<RxResult, WireError>, b: &Result<RxResult, WireError>, i: usize) {
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.outcome, y.outcome, "frame {i} outcome");
                assert_eq!(x.replies, y.replies, "frame {i} replies");
                assert_eq!(x.pcbs_examined, y.pcbs_examined, "frame {i} examined");
            }
            (Err(x), Err(y)) => assert_eq!(x, y, "frame {i} error"),
            _ => panic!("frame {i}: sequential {a:?} vs batched {b:?}"),
        }
    }

    /// Record a full client session against a throwaway server, returning
    /// every frame the client put on the wire toward the server (plus a
    /// few adversarial extras), so the same byte sequence can be replayed
    /// into fresh servers.
    fn scripted_session() -> Vec<Vec<u8>> {
        let make_server = || {
            // The default demux is exactly the paper's sequent(19).
            let mut s = Stack::with_config(StackConfig::new(SERVER));
            s.listen(1521).unwrap();
            s.udp_bind(514).unwrap();
            s
        };
        let mut server = make_server();
        let mut client =
            Stack::with_config(StackConfig::new(CLIENT).with_demux(|| Box::new(BsdDemux::new())));

        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut push = |server: &mut Stack, client: &mut Stack, frame: Vec<u8>| {
            // Drive the recording server so the client sees its replies.
            if let Ok(r) = server.receive(&frame) {
                for reply in r.replies {
                    let _ = client.receive(&reply);
                }
            }
            frames.push(frame);
        };

        let (cp, syn) = client.connect(SERVER, 1521).unwrap();
        push(&mut server, &mut client, syn);
        // The handshake ACK was generated by `client.receive` inside
        // `push`; regenerate it deterministically by sending empty data…
        // instead, replay what the client would send next: data frames.
        for i in 0..4 {
            let frame = send_now(&mut client, cp, format!("txn {i}").as_bytes());
            push(&mut server, &mut client, frame);
        }
        // A connected-UDP datagram and one for an unbound port.
        let us = client.udp_open(40_000, SERVER, 514).unwrap();
        let udp_ok = client.udp_send(us, b"log line").unwrap();
        push(&mut server, &mut client, udp_ok);
        let us2 = client.udp_open(40_001, SERVER, 9).unwrap();
        let udp_dead = client.udp_send(us2, b"discard").unwrap();
        push(&mut server, &mut client, udp_dead);
        // A frame for another host, a truncated frame, and teardown.
        let (_ghost, foreign) = client.connect(Ipv4Addr::new(10, 0, 0, 99), 80).unwrap();
        push(&mut server, &mut client, foreign);
        push(&mut server, &mut client, vec![0x45, 0x00]);
        let fin = client.close(cp).unwrap();
        push(&mut server, &mut client, fin);
        // A stray RST for a connection that never existed: no reply, but
        // still counted.
        let stray_rst = TcpRepr {
            src_port: 40_002,
            dst_port: 1521,
            seq: 7,
            flags: TcpFlags::RST,
            ..TcpRepr::default()
        };
        let ip = Ipv4Repr::new(CLIENT, SERVER, IpProtocol::Tcp);
        frames.push(tcpdemux_wire::build_tcp_frame(&ip, &stray_rst, b""));
        frames
    }

    /// Whether `frame` is a well-formed TCP or UDP packet for `local`:
    /// exactly the frames that reach the demultiplexer.
    fn reaches_demux(frame: &[u8], local: Ipv4Addr) -> bool {
        let Ok(packet) = Ipv4Packet::new_checked(frame) else {
            return false;
        };
        let Ok(ip) = Ipv4Repr::parse(&packet) else {
            return false;
        };
        if ip.dst_addr != local {
            return false;
        }
        match ip.protocol {
            IpProtocol::Tcp => TcpSegment::new_checked(packet.payload())
                .and_then(|s| TcpRepr::parse(&s, ip.src_addr, ip.dst_addr))
                .is_ok(),
            IpProtocol::Udp => UdpDatagram::new_checked(packet.payload())
                .and_then(|d| UdpRepr::parse(&d, ip.src_addr, ip.dst_addr))
                .is_ok(),
            _ => false,
        }
    }

    /// The receive accounting rule: every frame handed to `receive` lands
    /// in exactly one outcome or drop counter, every frame that reaches
    /// the demultiplexer costs exactly one lookup (`demuxed` of them so
    /// far), and the stack's examined count is the demultiplexer's.
    fn assert_rx_accounting(stack: &Stack, demuxed: u64) {
        let snap = stack.stats();
        let s = snap.stack;
        assert_eq!(
            s.frames_in,
            s.ip_errors
                + s.tcp_errors
                + s.not_for_us
                + s.bad_protocol
                + s.icmp_in
                + s.demux_hits
                + s.listener_hits
                + s.syn_drops
                + s.resets_sent
                + s.unmatched_resets,
            "every frame lands in exactly one counter: {s:?}"
        );
        assert_eq!(snap.demux.lookups, demuxed, "one lookup per demuxed frame");
        assert_eq!(s.pcbs_examined, snap.demux.pcbs_examined);
    }

    #[test]
    fn receive_batch_matches_sequential_receive() {
        // Note the recorded script opens with a SYN whose handshake ACK is
        // never replayed (the recording client consumed the SYN-ACK), so
        // the data frames land on a SYN-RECEIVED connection — which the
        // stack handles (BSD processes data queued behind the accept), and
        // which both paths must classify identically.
        let frames = scripted_session();
        let fresh = || {
            let mut s = Stack::with_config(StackConfig::new(SERVER));
            s.listen(1521).unwrap();
            s.udp_bind(514).unwrap();
            s
        };

        let mut sequential = fresh();
        let mut demuxed = 0;
        let seq_results: Vec<_> = frames
            .iter()
            .map(|f| {
                let r = sequential.receive(f);
                demuxed += u64::from(reaches_demux(f, SERVER));
                assert_rx_accounting(&sequential, demuxed);
                r
            })
            .collect();
        assert_eq!(
            sequential.stats().stack.unmatched_resets,
            1,
            "the stray RST"
        );

        for batch_size in [1usize, 3, 8, frames.len()] {
            let mut batched = fresh();
            let mut bat_results = Vec::new();
            let mut demuxed = 0;
            for chunk in frames.chunks(batch_size) {
                bat_results.extend(batched.receive_batch(chunk).results);
                demuxed += chunk.iter().filter(|f| reaches_demux(f, SERVER)).count() as u64;
                assert_rx_accounting(&batched, demuxed);
            }
            assert_eq!(bat_results.len(), seq_results.len());
            for (i, (a, b)) in seq_results.iter().zip(&bat_results).enumerate() {
                assert_rx_equal(a, b, i);
            }
            assert_eq!(
                sequential.stats().stack,
                batched.stats().stack,
                "stack counters must agree at batch size {batch_size}"
            );
            assert_eq!(batched.connection_count(), sequential.connection_count());
        }
    }

    #[test]
    fn mid_batch_syn_is_visible_to_the_handshake_ack() {
        // SYN and its completing ACK in ONE batch: the ACK must see the
        // connection the SYN just inserted, not draw an RST at an opening
        // client.
        let (mut server, mut client) = pair();
        server.listen(80).unwrap();
        let (_cp, syn) = client.connect(SERVER, 80).unwrap();
        // Forge the handshake ACK without consuming the server's SYN-ACK:
        // run the handshake against a twin server to capture the ACK.
        let mut twin =
            Stack::with_config(StackConfig::new(SERVER).with_demux(|| Box::new(BsdDemux::new())));
        twin.listen(80).unwrap();
        let r = twin.receive(&syn).unwrap();
        let ack = client.receive(&r.replies[0]).unwrap().replies[0].clone();

        let batch = server.receive_batch(&[syn, ack]);
        assert!(matches!(
            batch.results[0].as_ref().unwrap().outcome,
            RxOutcome::NewConnection { .. }
        ));
        assert!(matches!(
            batch.results[1].as_ref().unwrap().outcome,
            RxOutcome::Established { .. }
        ));
        assert_eq!(server.stats().stack.resets_sent, 0);
    }

    #[test]
    fn transmit_is_allocation_free_after_warmup() {
        let (mut server, mut client) = pair();
        let (cp, _sp) = handshake(&mut server, &mut client, 1521);

        let exchange = |server: &mut Stack, client: &mut Stack, n: usize| {
            for i in 0..n {
                let frame = send_now(client, cp, format!("item {i}").as_bytes());
                let r = server.receive(&frame).unwrap();
                client.recycle(frame);
                for reply in r.replies {
                    let _ = client.receive(&reply).unwrap();
                    server.recycle(reply);
                }
            }
        };

        exchange(&mut server, &mut client, 4); // warm-up
        let client_base = client.stats().tx_pool.allocations;
        let server_base = server.stats().tx_pool.allocations;
        exchange(&mut server, &mut client, 100);
        assert_eq!(
            client.stats().tx_pool.allocations,
            client_base,
            "client data frames reuse recycled buffers"
        );
        assert_eq!(
            server.stats().tx_pool.allocations,
            server_base,
            "server ACKs reuse recycled buffers"
        );
        assert!(client.stats().tx_pool.reuses >= 100);
        assert!(server.stats().tx_pool.reuses >= 100);
    }

    #[test]
    fn advance_time_rejects_backwards_time_before_mutating() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let (mut server, mut client) = pair_with_time_wait(100);
        let (cp, sp) = handshake(&mut server, &mut client, 80);
        // Park the client in TIME-WAIT with a timer due at tick 100.
        let fin = client.close(cp).unwrap();
        let r = server.receive(&fin).unwrap();
        client.receive(&r.replies[0]).unwrap();
        let fin2 = server.close(sp).unwrap();
        let r = client.receive(&fin2).unwrap();
        assert!(matches!(r.outcome, RxOutcome::TimeWait { .. }));

        client.advance_time(50);
        let err = catch_unwind(AssertUnwindSafe(|| client.advance_time(49))).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("time went backwards"), "{msg}");
        // The failed call must not have moved the clock or eaten timers:
        // the TIME-WAIT connection still expires exactly on schedule.
        assert_eq!(client.advance_time(99).reclaimed, 0);
        assert_eq!(client.connection_count(), 1);
        assert_eq!(client.advance_time(100).reclaimed, 1);
        assert_eq!(client.connection_count(), 0);
    }

    #[test]
    fn rto_retransmits_lost_data_until_acked() {
        let (mut server, mut client) = pair();
        let (cp, sp) = handshake(&mut server, &mut client, 80);
        assert_eq!(client.next_timer_deadline(), None, "nothing in flight");

        // The frame is "lost": never delivered. One clean RTT sample
        // (the SYN) exists, so the RTO sits at the 200 ms floor.
        let _lost = send_now(&mut client, cp, b"pay me no mind");
        let due = client.next_timer_deadline().expect("RTO armed");
        assert_eq!(due, 200);

        // Nothing fires early.
        let quiet = client.advance_time(due - 1);
        assert!(quiet.retransmits.is_empty() && quiet.aborted.is_empty());

        let fired = client.advance_time(due);
        assert_eq!(fired.retransmits.len(), 1, "the queued segment re-emits");
        assert_eq!(client.stats().stack.retransmits, 1);

        // The retransmission delivers; the ACK retires the segment.
        let r = server.receive(&fired.retransmits[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Delivered { bytes: 14, .. }));
        assert_eq!(server.socket_mut(sp).unwrap().read_all(), b"pay me no mind");
        let r = client.receive(&r.replies[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::AckProcessed { .. }));
        assert_eq!(client.next_timer_deadline(), None, "queue drained");
    }

    #[test]
    fn karn_rule_skips_samples_from_retransmitted_segments() {
        let (mut server, mut client) = pair();
        let (cp, _sp) = handshake(&mut server, &mut client, 80);
        // One clean sample from the SYN→SYN-ACK round trip.
        assert_eq!(client.rtt_estimator(cp).unwrap().samples(), 1);
        assert_eq!(client.stats().stack.rtt_samples, 1);

        // Lose the original, deliver the retransmission, ACK it: the
        // sample count must not move — the ACK is ambiguous.
        let _lost = send_now(&mut client, cp, b"ambiguous");
        let due = client.next_timer_deadline().unwrap();
        let fired = client.advance_time(due);
        let r = server.receive(&fired.retransmits[0]).unwrap();
        let r = client.receive(&r.replies[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::AckProcessed { .. }));
        assert_eq!(client.rtt_estimator(cp).unwrap().samples(), 1);
        assert_eq!(client.stats().stack.rtt_samples, 1);

        // A later clean exchange samples again.
        let frame = send_now(&mut client, cp, b"clean");
        let r = server.receive(&frame).unwrap();
        client.receive(&r.replies[0]).unwrap();
        assert_eq!(client.rtt_estimator(cp).unwrap().samples(), 2);
    }

    #[test]
    fn rto_backoff_doubles_then_exhaustion_aborts_with_socket_error() {
        let (mut server, client) = pair();
        let config = client.config.clone();
        drop(client);
        let mut client = Stack::with_config(
            config
                .with_max_retries(3)
                .with_demux(|| Box::new(BsdDemux::new())),
        );
        let (cp, _sp) = handshake(&mut server, &mut client, 80);

        // Deliver one byte so the socket has residual data, then go
        // silent: the peer never sees anything again.
        let frame = send_now(&mut server, _sp, b"!");
        let r = client.receive(&frame).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Delivered { bytes: 1, .. }));

        let _lost = send_now(&mut client, cp, b"into the void");
        let mut deadlines = Vec::new();
        let aborted = loop {
            let due = client.next_timer_deadline().expect("timer stays armed");
            deadlines.push(due);
            let fired = client.advance_time(due);
            if !fired.aborted.is_empty() {
                assert!(fired.retransmits.is_empty(), "abort sends nothing");
                break fired.aborted;
            }
            assert_eq!(fired.retransmits.len(), 1);
        };

        // max_retries(3) means 3 retransmissions, then the fourth expiry
        // aborts; the intervals double: 200, 400, 800, then 1600 to the
        // aborting expiry.
        assert_eq!(client.stats().stack.retransmits, 3);
        assert_eq!(client.stats().stack.timeout_aborts, 1);
        let gaps: Vec<u64> = std::iter::once(deadlines[0])
            .chain(deadlines.windows(2).map(|w| w[1] - w[0]))
            .collect();
        assert_eq!(gaps, vec![200, 400, 800, 1600]);

        // The connection is gone and the error is surfaced.
        assert_eq!(aborted, vec![cp]);
        assert_eq!(client.connection_count(), 0);
        assert_eq!(client.state(cp), None);
        assert_eq!(
            client.socket(cp).unwrap().error(),
            Some(SocketError::TimedOut)
        );
        assert_eq!(client.send(cp, b"x"), Err(StackError::NoSuchConnection));
        // The application reaps the dead socket, residual data intact.
        let mut sock = client.release_socket(cp).expect("socket released");
        assert_eq!(sock.error(), Some(SocketError::TimedOut));
        assert_eq!(sock.read_all(), b"!");
        assert!(client.socket(cp).is_none());
    }

    #[test]
    fn telemetry_records_lifecycle_and_loss_recovery() {
        use tcpdemux_telemetry::{CounterId, Event};

        let (mut server, mut client) = pair();
        let (cp, sp) = handshake(&mut server, &mut client, 80);

        // Handshake: each side opened one connection, and every received
        // segment went through exactly one recorded demux lookup.
        let ct = client.stats().telemetry;
        let st = server.stats().telemetry;
        assert_eq!(ct.counter(CounterId::ConnOpened), 1);
        assert_eq!(st.counter(CounterId::ConnOpened), 1);
        assert_eq!(ct.counter(CounterId::Lookups), 1, "SYN-ACK");
        assert_eq!(st.counter(CounterId::Lookups), 2, "SYN + handshake ACK");
        assert_eq!(
            st.counter(CounterId::PcbsExamined),
            server.stats().stack.pcbs_examined,
            "telemetry and legacy counters agree on the paper's cost metric"
        );

        // Loss recovery: a lost segment retransmits once with backoff.
        let _lost = send_now(&mut client, cp, b"gone");
        let due = client.next_timer_deadline().unwrap();
        let fired = client.advance_time(due);
        let r = server.receive(&fired.retransmits[0]).unwrap();
        client.receive(&r.replies[0]).unwrap();
        let ct = client.stats().telemetry;
        assert_eq!(ct.counter(CounterId::Retransmits), 1);
        assert_eq!(ct.counter(CounterId::RtoBackoffs), 1);
        assert!(
            ct.events()
                .iter()
                .any(|e| matches!(e.event, Event::Retransmit { attempt: 1 })),
            "retransmit event traced"
        );
        assert!(ct
            .events()
            .iter()
            .any(|e| matches!(e.event, Event::RtoBackoff { attempts: 1, .. })));

        // Graceful close: both sides record a Graceful ConnClose.
        let fin = client.close(cp).unwrap();
        let r = server.receive(&fin).unwrap();
        let r = client.receive(&r.replies[0]).unwrap();
        assert!(r.replies.is_empty());
        let fin2 = server.close(sp).unwrap();
        let r = client.receive(&fin2).unwrap();
        server.receive(&r.replies[0]).unwrap();
        for stack in [&client, &server] {
            let t = stack.stats().telemetry;
            assert_eq!(t.counter(CounterId::ConnClosed), 1);
            assert_eq!(t.counter(CounterId::ConnAborted), 0);
            assert!(t.events().iter().any(|e| matches!(
                e.event,
                Event::ConnClose {
                    cause: tcpdemux_telemetry::CloseCause::Graceful
                }
            )));
        }

        // The event trace and the counters never drift: replaying the
        // trace's lookup events reproduces the lookup counter.
        let traced_lookups = ct
            .events()
            .iter()
            .filter(|e| matches!(e.event, Event::DemuxHit { .. } | Event::DemuxMiss { .. }))
            .count() as u64;
        assert_eq!(ct.events_dropped(), 0);
        assert_eq!(traced_lookups, ct.counter(CounterId::Lookups));
    }

    #[test]
    fn telemetry_records_timeout_abort_cause() {
        use tcpdemux_telemetry::{CloseCause, CounterId, Event};

        let (mut server, client) = pair();
        let config = client.config.clone();
        drop(client);
        let mut client = Stack::with_config(
            config
                .with_max_retries(1)
                .with_demux(|| Box::new(BsdDemux::new())),
        );
        let (cp, _sp) = handshake(&mut server, &mut client, 80);
        let _lost = send_now(&mut client, cp, b"void");
        loop {
            let due = client.next_timer_deadline().expect("timer armed");
            if !client.advance_time(due).aborted.is_empty() {
                break;
            }
        }
        let t = client.stats().telemetry;
        assert_eq!(t.counter(CounterId::TimeoutAborts), 1);
        assert_eq!(t.counter(CounterId::ConnAborted), 1);
        assert!(t.events().iter().any(|e| matches!(
            e.event,
            Event::ConnClose {
                cause: CloseCause::Timeout
            }
        )));
    }

    #[test]
    fn lost_handshake_ack_recovers_via_synack_retransmission() {
        let (mut server, mut client) = pair();
        server.listen(80).unwrap();
        let (cp, syn) = client.connect(SERVER, 80).unwrap();
        let r = server.receive(&syn).unwrap();
        let sp = match r.outcome {
            RxOutcome::NewConnection { pcb } => pcb,
            other => panic!("expected NewConnection, got {other:?}"),
        };
        let r = client.receive(&r.replies[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Established { .. }));
        // The client's handshake ACK is lost; the server's RTO re-sends
        // its SYN-ACK (its first segment, so the initial 1 s RTO).
        let due = server.next_timer_deadline().expect("SYN-ACK in flight");
        assert_eq!(due, 1000);
        let fired = server.advance_time(due);
        assert_eq!(fired.retransmits.len(), 1);
        // The established client re-acknowledges the duplicate SYN-ACK…
        let r = client.receive(&fired.retransmits[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Duplicate { .. }));
        assert_eq!(r.replies.len(), 1);
        // …which completes the server's handshake.
        let r = server.receive(&r.replies[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Established { .. }));
        assert!(server.is_established(sp));
        assert_eq!(server.next_timer_deadline(), None);
        // Karn: the server must not have sampled the ambiguous SYN-ACK.
        assert_eq!(server.rtt_estimator(sp).unwrap().samples(), 0);
        assert!(client.is_established(cp));
    }

    #[test]
    fn lost_fin_is_retransmitted_and_close_completes() {
        let (mut server, mut client) = pair();
        let (cp, sp) = handshake(&mut server, &mut client, 80);
        let _lost_fin = client.close(cp).unwrap();
        let due = client.next_timer_deadline().expect("FIN in flight");
        let fired = client.advance_time(due);
        assert_eq!(fired.retransmits.len(), 1);
        let r = server.receive(&fired.retransmits[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::PeerClosed { .. }));
        let r = client.receive(&r.replies[0]).unwrap();
        assert!(matches!(r.outcome, RxOutcome::AckProcessed { .. }));
        assert_eq!(client.next_timer_deadline(), None, "FIN acknowledged");
        assert_eq!(client.state(cp), Some(TcpState::FinWait2));
        // Finish the teardown in the other direction.
        let fin = server.close(sp).unwrap();
        let r = client.receive(&fin).unwrap();
        assert!(matches!(r.outcome, RxOutcome::Closed));
        server.receive(&r.replies[0]).unwrap();
        assert_eq!(client.connection_count(), 0);
        assert_eq!(server.connection_count(), 0);
    }
}
