//! The tcpdemux repository benchmark.
//!
//! Four seeded traffic mixes run through the library's public API in the
//! stack's default configuration (`StackConfig::new`: `sequent(19)` over
//! `Multiplicative`, NewReno, MSS 1,460):
//!
//! * [`oltp`] — TPC/A transactions over 50,000 established connections;
//! * [`bulk`] — two byte-verified 64 KiB-write streams over a 1 %-loss link;
//! * [`churn`] — connection open/request/response/close cycles with
//!   TIME-WAIT, beside 2,000 idle connections, plus one stray miss per op;
//! * [`sharded`] — in-order data frames through a two-shard
//!   `ShardedStack` (ingress thread + worker thread).
//!
//! Ground rules shared by all four: frames pass in-process between
//! stacks (no NIC, no loopback, no OS sockets); the loop is closed (the
//! next operation starts when the previous one returns; in `sharded` the
//! bounded ring applies backpressure); time is virtual and advances only
//! through `advance_time` ticks the driver issues; every input comes from
//! the command-line seed; at most two threads run.
//!
//! An untraced run reports the end-to-end metrics. A traced run (`--trace
//! 1`) first runs a traced phase — spans around every library call the
//! driver makes, logged demultiplexer operations, sampled frames — then an
//! untraced phase on the same state, and reports per-layer metrics,
//! including replays of single layers ([`replica`]) and the tracing
//! overhead. Every run checks its outputs (see [`Run::check`]).

pub mod bulk;
pub mod churn;
pub mod measure;
pub mod oltp;
pub mod pattern;
pub mod replica;
pub mod report;
pub mod sharded;

use measure::{Hist, Kind, Tracer, WindowStat, Windows};
use pattern::{fold, FP_INIT};
use replica::{DemuxLog, FrameSample};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};
use tcpdemux_pcb::PcbId;
use tcpdemux_stack::{
    steering_key, FaultInjector, FaultOutcome, RxOutcome, RxResult, Stack, StackConfig,
    StatsSnapshot, TimeAdvance, TxScratch,
};
use tcpdemux_telemetry::CounterId;

/// The server every workload connects to.
pub const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// The server's listening port (the paper's TPC/A database port).
pub const PORT: u16 = 1521;

/// Client host `index` on client network `net` (10.net.x.y).
pub fn client_addr(net: u8, index: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, net, (index / 250) as u8, (index % 250 + 2) as u8)
}

/// A run that cannot continue: corrupted bytes, a failed check, a
/// misdelivered segment. The benchmark exits non-zero.
#[derive(Debug)]
pub struct Fatal(pub String);

impl<E: std::fmt::Display> From<E> for Fatal {
    fn from(e: E) -> Self {
        Fatal(e.to_string())
    }
}

/// Shorthand for returning a [`Fatal`].
macro_rules! fatal {
    ($($arg:tt)*) => { return Err($crate::Fatal(format!($($arg)*))) };
}
pub(crate) use fatal;

/// When a timed phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// After this much wall time.
    Time(Duration),
    /// After this many operations (for deterministic tests).
    Ops(u64),
}

impl Limit {
    /// Half the limit, for the two phases of a traced run.
    pub fn half(self) -> Limit {
        match self {
            Limit::Time(d) => Limit::Time(d / 2),
            Limit::Ops(n) => Limit::Ops(n.div_ceil(2)),
        }
    }

    /// Whether a phase that began at `began` and has run `ops` is over.
    pub fn reached(self, began: Instant, ops: u64) -> bool {
        match self {
            Limit::Time(d) => began.elapsed() >= d,
            Limit::Ops(n) => ops >= n,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub limit: Limit,
    pub trace: bool,
}

/// Exact counts of one run, compared by the determinism tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Operations attempted in the timed phases.
    pub ops: u64,
    /// Frames handed to the measured receiver in the timed phases.
    pub frames: u64,
    /// Receive outcomes on the measured receiver, by name.
    pub outcomes: BTreeMap<&'static str, u64>,
    /// PCBs-examined histogram buckets of the measured receiver (last
    /// timed phase).
    pub examined: Vec<(usize, u64)>,
    /// Segments retransmitted (RTO + fast retransmit), all stacks.
    pub retransmits: u64,
    /// Frames dropped by the fault injector and out-of-order drops.
    pub drops: u64,
    /// Fingerprint of the arrival order at the measured receiver.
    pub arrival_fp: u64,
}

/// Name of a receive outcome, for counts.
pub fn outcome_name(outcome: &RxOutcome) -> &'static str {
    match outcome {
        RxOutcome::Delivered { .. } => "delivered",
        RxOutcome::DeliveredUnconnected { .. } => "delivered_unconnected",
        RxOutcome::AckProcessed { .. } => "ack",
        RxOutcome::Established { .. } => "established",
        RxOutcome::NewConnection { .. } => "new_connection",
        RxOutcome::PeerClosed { .. } => "peer_closed",
        RxOutcome::Closed => "closed",
        RxOutcome::TimeWait { .. } => "time_wait",
        RxOutcome::ResetSent => "reset_sent",
        RxOutcome::ResetReceived => "reset_received",
        RxOutcome::Duplicate { .. } => "duplicate",
        RxOutcome::NotForUs => "not_for_us",
        RxOutcome::UnhandledProtocol => "unhandled_protocol",
        RxOutcome::UdpUnreachable => "udp_unreachable",
        RxOutcome::EchoReplied => "echo_replied",
        RxOutcome::IcmpProcessed => "icmp",
        RxOutcome::ArpReplied => "arp_replied",
        RxOutcome::ArpProcessed => "arp",
        RxOutcome::SynDropped => "syn_dropped",
    }
}

/// Whether an outcome moved a connection forward (delivered data,
/// advanced the handshake or teardown, or processed an ACK).
pub fn is_useful(outcome: &RxOutcome) -> bool {
    matches!(
        outcome,
        RxOutcome::Delivered { .. }
            | RxOutcome::AckProcessed { .. }
            | RxOutcome::Established { .. }
            | RxOutcome::NewConnection { .. }
            | RxOutcome::PeerClosed { .. }
            | RxOutcome::Closed
            | RxOutcome::TimeWait { .. }
    )
}

/// Everything measured on the measured receiver (the server, or the
/// data receiver in `bulk`) and by the driver during the timed phases.
#[derive(Default)]
pub struct Meters {
    /// Whether receives are counted (false during set-up and warm-up).
    pub timing: bool,
    /// Receive latency of the frames that delivered bytes to a socket
    /// (frame-in to bytes-in-socket), current phase, ns.
    pub rx_lat: Hist,
    /// Receive latency of every frame, current phase, ns.
    pub frame_lat: Hist,
    /// The current phase's measurement windows.
    pub windows: Windows,
    /// PCBs examined per received TCP frame, current phase.
    pub examined: Hist,
    /// Frames received and useful outcomes, current phase.
    pub frames: u64,
    pub useful: u64,
    /// Application bytes read and verified, current phase.
    pub verified: u64,
    /// Failure signals seen (aborts, resets of live connections, refused
    /// SYNs), whole run.
    pub signals: u64,
    /// Retransmit frames and TIME-WAIT reclaims from `advance_time`,
    /// current phase.
    pub timer_retransmits: u64,
    pub timer_reclaimed: u64,
    /// Sampled sender congestion windows, bytes, current phase.
    pub cwnd: Hist,
    /// Determinism counts across the timed phases.
    pub counts: Counts,
    /// The demux log and frame sample (filled in traced runs).
    pub log: DemuxLog,
    pub sample: FrameSample,
    pub sampling: bool,
}

impl Meters {
    /// Meters whose demux log records when `log`.
    pub fn new(log: bool) -> Self {
        Self {
            log: DemuxLog::new(log),
            counts: Counts {
                arrival_fp: FP_INIT,
                ..Counts::default()
            },
            ..Self::default()
        }
    }

    /// Start a timed phase: per-phase meters restart.
    pub fn start_phase(&mut self, traced: bool) {
        self.timing = true;
        self.sampling = traced;
        self.rx_lat = Hist::default();
        self.frame_lat = Hist::default();
        self.examined = Hist::default();
        self.cwnd = Hist::default();
        self.frames = 0;
        self.useful = 0;
        self.verified = 0;
        self.timer_retransmits = 0;
        self.timer_reclaimed = 0;
        self.log.start_timed();
    }

    /// Account one measured receive.
    pub fn on_rx(&mut self, frame: &[u8], result: &RxResult, ns: u64) {
        self.log.on_receive(frame, result);
        if !self.timing {
            return;
        }
        self.frame_lat.record(ns);
        if matches!(result.outcome, RxOutcome::Delivered { .. }) {
            self.rx_lat.record(ns);
            self.windows.record(ns);
        }
        self.examined.record(u64::from(result.pcbs_examined));
        self.frames += 1;
        self.useful += u64::from(is_useful(&result.outcome));
        let c = &mut self.counts;
        c.frames += 1;
        *c.outcomes.entry(outcome_name(&result.outcome)).or_default() += 1;
        if let Some(key) = steering_key(frame) {
            let packed = (u64::from(u32::from(key.remote_addr)) << 16) | u64::from(key.remote_port);
            c.arrival_fp = fold(c.arrival_fp, packed);
        }
        if self.sampling {
            self.sample.offer(frame);
        }
    }

    /// Account one `advance_time` result.
    pub fn on_advance(&mut self, advance: &TimeAdvance) {
        self.log.on_reclaimed(advance.reclaimed);
        self.signals += advance.aborted.len() as u64;
        if self.timing {
            self.timer_retransmits += advance.retransmits.len() as u64;
            self.timer_reclaimed += advance.reclaimed as u64;
        }
    }
}

/// A stack the driver owns, with the count of frames handed to it.
pub struct Host {
    pub stack: Stack,
    pub handed: u64,
}

impl Host {
    /// A host built from `config`.
    pub fn new(config: StackConfig) -> Self {
        Self {
            stack: Stack::with_config(config),
            handed: 0,
        }
    }

    /// `Stack::receive` on the measured receiver: timed every time
    /// (receive latency is an end-to-end metric), traced when on.
    pub fn receive_measured(
        &mut self,
        frame: &[u8],
        tracer: &mut Tracer,
        meters: &mut Meters,
    ) -> Result<RxResult, Fatal> {
        self.handed += 1;
        let start = tracer.now();
        let result = self.stack.receive(frame);
        let end = tracer.now();
        tracer.span(Kind::ServerRx, start, end, 1);
        let result =
            result.map_err(|e| Fatal(format!("measured receiver rejected a frame: {e}")))?;
        meters.on_rx(frame, &result, end - start);
        Ok(result)
    }

    /// `Stack::receive` on a peer stack.
    pub fn receive_peer(&mut self, frame: &[u8], tracer: &mut Tracer) -> Result<RxResult, Fatal> {
        self.handed += 1;
        let start = tracer.now();
        let result = self.stack.receive(frame);
        tracer.span(Kind::PeerRx, start, tracer.now(), 1);
        result.map_err(|e| Fatal(format!("peer rejected a frame: {e}")))
    }

    /// `Stack::send`, traced.
    pub fn send(&mut self, pcb: PcbId, data: &[u8], tracer: &mut Tracer) -> Result<usize, Fatal> {
        let start = tracer.now();
        let accepted = self.stack.send(pcb, data);
        tracer.span(Kind::Send, start, tracer.now(), 1);
        Ok(accepted?)
    }

    /// `Stack::poll_transmit`, traced; the frames land in `scratch`.
    pub fn poll(&mut self, scratch: &mut TxScratch, tracer: &mut Tracer) -> usize {
        let start = tracer.now();
        let n = self.stack.poll_transmit(scratch);
        tracer.span(Kind::Poll, start, tracer.now(), n as u64);
        n
    }

    /// `SocketBuffer::read_into` on `pcb`'s socket, traced.
    pub fn read(
        &mut self,
        pcb: PcbId,
        buf: &mut [u8],
        tracer: &mut Tracer,
    ) -> Result<usize, Fatal> {
        let start = tracer.now();
        let Some(socket) = self.stack.socket_mut(pcb) else {
            fatal!("no socket for a connection that delivered data");
        };
        let n = socket.read_into(buf);
        tracer.span(Kind::Read, start, tracer.now(), n as u64);
        Ok(n)
    }

    /// `Stack::advance_time`, traced.
    pub fn advance(&mut self, tick: u64, tracer: &mut Tracer, meters: &mut Meters) -> TimeAdvance {
        let start = tracer.now();
        let advance = self.stack.advance_time(tick);
        tracer.span(Kind::Advance, start, tracer.now(), 1);
        meters.on_advance(&advance);
        advance
    }
}

/// The in-process "wire" between a server and its clients: two frame
/// queues, optionally passing through seeded fault injectors.
#[derive(Default)]
pub struct Wire {
    pub to_server: VecDeque<Vec<u8>>,
    pub to_client: VecDeque<Vec<u8>>,
    faults: Option<(FaultInjector, FaultInjector)>,
}

impl Wire {
    /// Pass frames through `up` (client → server) and `down` injectors.
    pub fn set_faults(&mut self, up: FaultInjector, down: FaultInjector) {
        self.faults = Some((up, down));
    }

    /// Frames the injectors dropped so far.
    pub fn dropped(&self) -> u64 {
        self.faults
            .as_ref()
            .map_or(0, |(up, down)| up.dropped() + down.dropped())
    }

    fn carry(injector: Option<&mut FaultInjector>, frame: Vec<u8>) -> Option<Vec<u8>> {
        match injector {
            None => Some(frame),
            Some(inj) => match inj.transmit(&frame) {
                FaultOutcome::Passed(f) | FaultOutcome::Corrupted(f) => Some(f),
                FaultOutcome::Dropped => None,
            },
        }
    }

    /// Put a client frame on the wire towards the server.
    pub fn up(&mut self, frame: Vec<u8>) {
        if let Some(f) = Self::carry(self.faults.as_mut().map(|f| &mut f.0), frame) {
            self.to_server.push_back(f);
        }
    }

    /// Put a server frame on the wire towards the clients.
    pub fn down(&mut self, frame: Vec<u8>) {
        if let Some(f) = Self::carry(self.faults.as_mut().map(|f| &mut f.1), frame) {
            self.to_client.push_back(f);
        }
    }
}

/// The server, its clients, and the wire between them.
pub struct Net {
    pub server: Host,
    pub clients: Vec<Host>,
    by_addr: HashMap<Ipv4Addr, usize>,
    pub wire: Wire,
}

/// Which side of [`Net`] received a frame.
pub enum Side {
    Server,
    Client(usize),
}

impl Net {
    /// A server with a listener on [`PORT`] and one client host per
    /// address, all in the default configuration except `server_config`.
    pub fn new(server_config: StackConfig, client_addrs: &[Ipv4Addr]) -> Result<Self, Fatal> {
        let mut server = Host::new(server_config);
        server.stack.listen(PORT)?;
        let clients = client_addrs
            .iter()
            .map(|&a| Host::new(StackConfig::new(a)))
            .collect();
        let by_addr = client_addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, i))
            .collect();
        Ok(Self {
            server,
            clients,
            by_addr,
            wire: Wire::default(),
        })
    }

    /// Deliver queued frames both ways until the wire is empty. `on_rx`
    /// sees every receive result (for application reads); replies go back
    /// on the wire. A client receiving an RST on a live connection is a
    /// failure signal.
    pub fn pump(
        &mut self,
        tracer: &mut Tracer,
        meters: &mut Meters,
        mut on_rx: impl FnMut(&mut Host, Side, &RxResult, &mut Tracer, &mut Meters) -> Result<(), Fatal>,
    ) -> Result<(), Fatal> {
        loop {
            if let Some(frame) = self.wire.to_server.pop_front() {
                let result = self.server.receive_measured(&frame, tracer, meters)?;
                if matches!(result.outcome, RxOutcome::SynDropped) {
                    meters.signals += 1;
                }
                on_rx(&mut self.server, Side::Server, &result, tracer, meters)?;
                for reply in result.replies {
                    self.wire.down(reply);
                }
                self.server.stack.recycle(frame);
            } else if let Some(frame) = self.wire.to_client.pop_front() {
                let dst = Ipv4Addr::new(frame[16], frame[17], frame[18], frame[19]);
                let Some(&c) = self.by_addr.get(&dst) else {
                    fatal!("server sent a frame to unknown host {dst}");
                };
                let client = &mut self.clients[c];
                let result = client.receive_peer(&frame, tracer)?;
                if matches!(result.outcome, RxOutcome::ResetReceived) {
                    meters.signals += 1;
                }
                on_rx(client, Side::Client(c), &result, tracer, meters)?;
                for reply in result.replies {
                    self.wire.up(reply);
                }
                client.stack.recycle(frame);
            } else {
                return Ok(());
            }
        }
    }

    /// Open a connection from client `c` (from `local_port`, or an
    /// ephemeral port) with a real three-way handshake over the wire.
    /// Returns the client's and the server's handles.
    pub fn handshake(
        &mut self,
        c: usize,
        local_port: Option<u16>,
        tracer: &mut Tracer,
        meters: &mut Meters,
    ) -> Result<(PcbId, PcbId), Fatal> {
        let client = &mut self.clients[c].stack;
        let (cpcb, syn) = match local_port {
            Some(port) => client.connect_from(port, SERVER, PORT)?,
            None => client.connect(SERVER, PORT)?,
        };
        self.wire.up(syn);
        let mut spcb = None;
        self.pump(tracer, meters, |_, side, r, _, _| {
            if let (Side::Server, RxOutcome::Established { pcb }) = (side, r.outcome) {
                spcb = Some(pcb);
            }
            Ok(())
        })?;
        let Some(spcb) = spcb else {
            fatal!("handshake from client {c} did not complete");
        };
        if self.server.stack.accept(PORT) != Some(spcb) {
            fatal!("accept returned another connection than the one just established");
        }
        Ok((cpcb, spcb))
    }

    /// Every host, server first.
    pub fn hosts(&self) -> impl Iterator<Item = &Host> {
        std::iter::once(&self.server).chain(&self.clients)
    }

    /// Counter totals summed over every host.
    pub fn totals(&self) -> Totals {
        Totals::sum(self.hosts().map(|h| h.stack.stats()))
    }
}

/// Counter totals of one stack (or a sum of stacks) at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub frames_in: u64,
    pub frames_out: u64,
    pub resets_sent: u64,
    pub ooo_drops: u64,
    pub retransmits: u64,
    pub lookups: u64,
    pub cache_hits: u64,
    pub found: u64,
    pub aborted: u64,
    pub syn_drops: u64,
}

impl Totals {
    /// Totals from one stack's snapshot.
    pub fn of(s: &StatsSnapshot) -> Self {
        Self {
            frames_in: s.stack.frames_in,
            frames_out: s.stack.frames_out,
            resets_sent: s.stack.resets_sent,
            ooo_drops: s.stack.out_of_order_drops,
            retransmits: s.telemetry.counter(CounterId::Retransmits)
                + s.telemetry.counter(CounterId::FastRetransmits),
            lookups: s.demux.lookups,
            cache_hits: s.demux.cache_hits,
            found: s.demux.found,
            aborted: s.telemetry.counter(CounterId::ConnAborted),
            syn_drops: s.stack.syn_drops,
        }
    }

    /// Sum over several snapshots.
    pub fn sum(snapshots: impl IntoIterator<Item = StatsSnapshot>) -> Self {
        snapshots
            .into_iter()
            .fold(Self::default(), |a, s| a.plus(Self::of(&s)))
    }

    fn zip(self, o: Self, f: impl Fn(u64, u64) -> u64) -> Self {
        Self {
            frames_in: f(self.frames_in, o.frames_in),
            frames_out: f(self.frames_out, o.frames_out),
            resets_sent: f(self.resets_sent, o.resets_sent),
            ooo_drops: f(self.ooo_drops, o.ooo_drops),
            retransmits: f(self.retransmits, o.retransmits),
            lookups: f(self.lookups, o.lookups),
            cache_hits: f(self.cache_hits, o.cache_hits),
            found: f(self.found, o.found),
            aborted: f(self.aborted, o.aborted),
            syn_drops: f(self.syn_drops, o.syn_drops),
        }
    }

    /// Field-wise sum.
    pub fn plus(self, o: Self) -> Self {
        self.zip(o, |a, b| a + b)
    }

    /// Field-wise difference (`self` taken later than `o`).
    pub fn minus(self, o: Self) -> Self {
        self.zip(o, |a, b| a - b)
    }
}

/// One timed phase's result.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub ops: u64,
    pub failed: u64,
    pub secs: f64,
    pub verified: u64,
    /// Per-window receive latency (see [`measure::WINDOW`]).
    pub windows: Vec<WindowStat>,
}

impl Phase {
    /// Operations completed per wall second.
    pub fn ops_per_s(&self) -> f64 {
        measure::ratio(self.ops as f64, self.secs)
    }

    /// Verified application bytes per wall second.
    pub fn bytes_per_s(&self) -> f64 {
        measure::ratio(self.verified as f64, self.secs)
    }
}

/// The parts every workload's run produces, turned into the report by
/// [`report`].
pub struct Run {
    pub workload: &'static str,
    pub config: RunConfig,
    pub setup_secs: Vec<f64>,
    /// The untraced timed phase (the second phase of a traced run).
    pub untraced: Phase,
    /// The traced phase, in traced runs.
    pub traced: Option<Phase>,
    /// Receive latency of the untraced phase.
    pub rx_lat: Hist,
    /// Per-layer inputs, in traced runs.
    pub layers: Option<report::Layers>,
    pub counts: Counts,
    /// Failed checks; empty when the run is correct.
    pub violations: Vec<String>,
    /// Extra lines for the human-readable table.
    pub notes: Vec<String>,
    /// The span log of a traced run.
    pub span_log: Option<String>,
}

impl Run {
    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Operations attempted and failed over all timed phases.
    pub fn attempted_failed(&self) -> (u64, u64) {
        let t = self.traced.clone().unwrap_or_default();
        (self.untraced.ops + t.ops, self.untraced.failed + t.failed)
    }
}

/// Least number of set-ups in an untraced run; `setup_s` is their
/// median. A traced run sets up once.
const SETUPS: usize = 3;
/// Set-ups are repeated until this much time is spent (and at least
/// [`SETUPS`] times), so a cheap set-up's median rests on many samples.
const SETUP_BUDGET: Duration = Duration::from_millis(500);
/// Upper bound on set-up repetitions (the cheapest set-up, `bulk`'s two
/// handshakes, takes tens of microseconds).
const MAX_SETUPS: usize = 100_000;

/// Time repeated set-ups, keeping the last; earlier ones are dropped
/// before the next starts so peak memory is one set-up's. One set-up in
/// a traced run; otherwise at least [`SETUPS`], and more while the total
/// stays under [`SETUP_BUDGET`].
pub fn timed_setups<T>(
    trace: bool,
    mut build: impl FnMut() -> Result<T, Fatal>,
) -> Result<(T, Vec<f64>), Fatal> {
    let mut secs = Vec::new();
    let mut kept = None;
    let began = Instant::now();
    while secs.is_empty()
        || (!trace
            && (secs.len() < SETUPS || (secs.len() < MAX_SETUPS && began.elapsed() < SETUP_BUDGET)))
    {
        drop(kept.take());
        let began = Instant::now();
        kept = Some(build()?);
        secs.push(began.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), secs))
}

/// A workload whose operations the main thread drives one at a time
/// through [`Net`] (`oltp`, `bulk`, `churn`).
pub trait Serial: Sized {
    /// Workload name.
    const NAME: &'static str;
    /// Build the stacks, run the handshakes, prepare the inputs.
    fn setup(seed: u64, meters: &mut Meters) -> Result<Self, Fatal>;
    /// Operations run (untimed) between set-up and the timed phases.
    const WARMUP_OPS: u64;
    /// Run operation `n`; `Ok(false)` if it failed.
    fn op(&mut self, n: u64, tracer: &mut Tracer, meters: &mut Meters) -> Result<bool, Fatal>;
    /// The stacks.
    fn net(&self) -> &Net;
}

fn serial_phase<W: Serial>(
    w: &mut W,
    next_op: &mut u64,
    limit: Limit,
    tracer: &mut Tracer,
    meters: &mut Meters,
) -> Result<Phase, Fatal> {
    meters.start_phase(tracer.is_on());
    meters.windows.start();
    let began = Instant::now();
    let mut phase = Phase::default();
    while !limit.reached(began, phase.ops) {
        tracer.begin(Kind::Op, *next_op);
        let ok = w.op(*next_op, tracer, meters)?;
        tracer.end();
        *next_op += 1;
        phase.ops += 1;
        phase.failed += u64::from(!ok);
        meters.windows.tick(false);
    }
    meters.windows.tick(true);
    phase.secs = began.elapsed().as_secs_f64();
    phase.verified = meters.verified;
    phase.windows = std::mem::take(&mut meters.windows.done);
    meters.counts.ops += phase.ops;
    Ok(phase)
}

/// Run a [`Serial`] workload: set-ups, warm-up, then the untraced phase
/// (or a traced phase followed by an untraced one), then the checks.
pub fn run_serial<W: Serial>(config: RunConfig) -> Result<Run, Fatal> {
    let base = Instant::now();
    let mut meters = Meters::default();
    let (mut w, setup_secs) = timed_setups(config.trace, || {
        meters = Meters::new(config.trace);
        W::setup(config.seed, &mut meters)
    })?;
    let mut off = Tracer::new(false, base);
    let mut n = 0;
    for _ in 0..W::WARMUP_OPS {
        if !w.op(n, &mut off, &mut meters)? {
            fatal!("warm-up operation {n} failed");
        }
        n += 1;
    }
    let signals_before = meters.signals;
    let totals_before = w.net().totals();
    let server_before = Totals::of(&w.net().server.stack.stats());
    let dropped_before = w.net().wire.dropped();

    let mut traced = None;
    let mut layers = None;
    let mut span_log = None;
    let limit = if config.trace {
        config.limit.half()
    } else {
        config.limit
    };
    if config.trace {
        let mut tracer = Tracer::new(true, base);
        let phase = serial_phase(&mut w, &mut n, limit, &mut tracer, &mut meters)?;
        let totals = w.net().totals();
        let server = Totals::of(&w.net().server.stack.stats());
        let mut l = report::Layers::from_meters(&meters, phase.clone());
        l.stacks = totals.minus(totals_before);
        l.receiver = server.minus(server_before);
        l.replay(
            std::slice::from_ref(&meters.log),
            &meters.sample,
            None,
            &mut tracer,
        )?;
        l.aggs_from(&tracer);
        span_log = Some(tracer.log_tsv());
        layers = Some(l);
        traced = Some(phase);
    }
    let mut off = Tracer::new(false, base);
    let untraced = serial_phase(&mut w, &mut n, limit, &mut off, &mut meters)?;
    if let Some(l) = layers.as_mut() {
        l.untraced_ops_per_s = untraced.ops_per_s();
    }

    let server_after = Totals::of(&w.net().server.stack.stats());
    let totals_after = w.net().totals();
    let mut counts = std::mem::take(&mut meters.counts);
    counts.examined = meters.examined.buckets();
    counts.retransmits = totals_after.retransmits - totals_before.retransmits;
    counts.drops = (w.net().wire.dropped() - dropped_before)
        + (server_after.ooo_drops - server_before.ooo_drops);

    let mut run = Run {
        workload: W::NAME,
        config,
        setup_secs,
        untraced,
        traced,
        rx_lat: std::mem::take(&mut meters.rx_lat),
        layers,
        counts,
        violations: Vec::new(),
        notes: Vec::new(),
        span_log,
    };
    for (i, host) in w.net().hosts().enumerate() {
        let seen = host.stack.stats().stack.frames_in;
        run.check(seen == host.handed, || {
            format!(
                "stack {i}: frames_in {seen} != {} frames handed in",
                host.handed
            )
        });
    }
    let stack_events = (totals_after.aborted + totals_after.syn_drops)
        - (totals_before.aborted + totals_before.syn_drops);
    check_failures(&mut run, stack_events, meters.signals - signals_before);
    Ok(run)
}

/// The failure-accounting gate: every abnormal close or refused SYN the
/// stacks counted must have reached the driver as a failure signal, and
/// a run with failure signals must have failed operations.
pub fn check_failures(run: &mut Run, stack_events: u64, signals: u64) {
    let (_, failed) = run.attempted_failed();
    run.check(stack_events <= signals, || {
        format!("stacks counted {stack_events} aborts/refused SYNs, the driver saw {signals}")
    });
    run.check(signals == 0 || failed > 0, || {
        format!("{signals} failure signals but no failed operation")
    });
}
