//! Measurement primitives: a latency histogram that keeps per-bucket
//! sums (so quantiles read as measured values, not bucket edges), the
//! span tracer used by traced runs, and the process's peak RSS.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Linear sub-buckets per power of two (2^6 = 64, ~1.6 % bucket width).
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

fn bucket(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    let sub = (v >> (octave - SUB_BITS)) as usize & (SUB - 1);
    SUB + (octave - SUB_BITS) as usize * SUB + sub
}

/// Log-linear histogram of `u64` samples (nanoseconds, counts, bytes).
///
/// Fixed memory (~60 KiB) however many samples it takes, so recording
/// every frame of a long run does not inflate the peak RSS the benchmark
/// reports. Each bucket also keeps the sum of its samples; a quantile is
/// reported as the mean of the samples in the bucket it falls in.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    sums: Vec<u64>,
    n: u64,
    total: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            sums: vec![0; BUCKETS],
            n: 0,
            total: 0,
        }
    }
}

impl Hist {
    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let b = bucket(v);
        self.counts[b] += 1;
        self.sums[b] = self.sums[b].wrapping_add(v);
        self.n += 1;
        self.total += u128::from(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Exact mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.total as f64 / self.n as f64
        }
    }

    /// The `q`-quantile (0 < q ≤ 1): the mean of the bucket holding the
    /// sample of rank ⌈q·n⌉ (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.sums[b] as f64 / c as f64;
            }
        }
        unreachable!("rank {rank} is within {} samples", self.n)
    }

    /// Every distinct bucket with its sample count (exact values below
    /// 64), for determinism fingerprints.
    pub fn buckets(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (b, c))
            .collect()
    }
}

/// Length of one measurement window of a timed phase.
pub const WINDOW: Duration = Duration::from_millis(100);

/// One window's receive-latency quantiles (ns).
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowStat {
    pub rx_p50: f64,
    pub rx_p99: f64,
}

/// Cuts a timed phase into [`WINDOW`]-long windows, each with its own
/// receive-latency quantiles.
#[derive(Default)]
pub struct Windows {
    lat: Hist,
    start: Option<Instant>,
    pub done: Vec<WindowStat>,
}

impl Windows {
    /// Start the first window.
    pub fn start(&mut self) {
        *self = Self {
            start: Some(Instant::now()),
            ..Self::default()
        };
    }

    /// Record one receive latency (ns).
    pub fn record(&mut self, ns: u64) {
        self.lat.record(ns);
    }

    /// Close the window if it has run its length (or, with `last`, if it
    /// has run at least half of it; a shorter tail is discarded). A
    /// window without samples is dropped.
    pub fn tick(&mut self, last: bool) {
        let Some(start) = self.start else {
            return;
        };
        let elapsed = start.elapsed();
        if elapsed < WINDOW && !(last && elapsed >= WINDOW / 2) {
            return;
        }
        if self.lat.count() > 0 {
            self.done.push(WindowStat {
                rx_p50: self.lat.quantile(0.5),
                rx_p99: self.lat.quantile(0.99),
            });
        }
        self.lat = Hist::default();
        self.start = Some(Instant::now());
    }
}

/// What a span covers. The names are the ones written to the span log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One operation of the workload (the root of its span tree).
    Op,
    /// `Stack::receive` on the measured receiver.
    ServerRx,
    /// `Stack::receive` on any other stack (clients, bulk sender).
    PeerRx,
    /// `SocketBuffer::read_into` by an application.
    Read,
    /// `Stack::send`.
    Send,
    /// `Stack::poll_transmit` (units: frames emitted).
    Poll,
    /// `Stack::advance_time`.
    Advance,
    /// A successful `ShardedStack::enqueue`.
    Enqueue,
    /// Ingress time spent retrying `enqueue` on `RingFull`.
    RingFullWait,
    /// A frame's wait in its shard ring: enqueue end to drain start.
    RingWait,
    /// `ShardedStack::drain` (units: frames returned).
    Drain,
    /// The sharded ingress thread's loop (root).
    Ingress,
    /// The sharded worker thread's loop (root).
    Worker,
    /// Replica replay: a run of consecutive demux lookups (units: lookups).
    ReplayLookup,
    /// Replica replay: one demux insert.
    ReplayInsert,
    /// Replica replay: one demux remove.
    ReplayRemove,
    /// Replay of IPv4 + TCP parsing over sampled frames (units: frames).
    ReplayParse,
    /// Replay of `steering_key` + `ShardedStack::steer` (units: frames).
    ReplaySteer,
}

impl Kind {
    /// Every kind, in declaration order.
    pub const ALL: [Kind; 18] = [
        Kind::Op,
        Kind::ServerRx,
        Kind::PeerRx,
        Kind::Read,
        Kind::Send,
        Kind::Poll,
        Kind::Advance,
        Kind::Enqueue,
        Kind::RingFullWait,
        Kind::RingWait,
        Kind::Drain,
        Kind::Ingress,
        Kind::Worker,
        Kind::ReplayLookup,
        Kind::ReplayInsert,
        Kind::ReplayRemove,
        Kind::ReplayParse,
        Kind::ReplaySteer,
    ];

    /// The span's name in the log.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Op => "op",
            Kind::ServerRx => "stack.receive.measured",
            Kind::PeerRx => "stack.receive.peer",
            Kind::Read => "socket.read_into",
            Kind::Send => "stack.send",
            Kind::Poll => "stack.poll_transmit",
            Kind::Advance => "stack.advance_time",
            Kind::Enqueue => "runtime.enqueue",
            Kind::RingFullWait => "runtime.ring_full_wait",
            Kind::RingWait => "runtime.ring_wait",
            Kind::Drain => "runtime.drain",
            Kind::Ingress => "driver.ingress",
            Kind::Worker => "driver.worker",
            Kind::ReplayLookup => "replay.core.lookup",
            Kind::ReplayInsert => "replay.core.insert",
            Kind::ReplayRemove => "replay.core.remove",
            Kind::ReplayParse => "replay.wire.parse",
            Kind::ReplaySteer => "replay.hash.steer",
        }
    }
}

/// Totals for one span kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time: duration minus the time direct children cover.
    pub self_ns: u64,
    /// Summed work units (frames, bytes, lookups; kind-specific).
    pub units: u64,
}

impl Agg {
    /// Mean duration per span (0 when none).
    pub fn mean_ns(&self) -> f64 {
        ratio(self.total_ns as f64, self.count as f64)
    }

    /// Duration per unit of work (0 when none).
    pub fn ns_per_unit(&self) -> f64 {
        ratio(self.total_ns as f64, self.units as f64)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One recorded span. `parent` indexes the span log (`NONE` for a root);
/// `op` is the operation id shared by the spans of one operation.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub parent: u32,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Parent index of a root span.
pub const NONE: u32 = u32::MAX;

/// Spans kept in memory for the log written at the end of a traced run;
/// the totals cover every span, logged or not.
const LOG_CAP: usize = 1 << 16;

/// Records spans around calls into the library.
///
/// Disabled, it only serves timestamps (the untraced run still times
/// every receive on the measured receiver). Enabled, it keeps per-kind
/// totals with self times for every span and the first [`LOG_CAP`] spans
/// verbatim. Nesting is one level deep: roots (`Op`, `Ingress`, `Worker`)
/// and their children, plus free-standing spans (ring waits, replays).
pub struct Tracer {
    on: bool,
    base: Instant,
    aggs: [Agg; Kind::ALL.len()],
    log: Vec<Span>,
    root: Option<(Kind, u64, u64, u64, u32)>,
}

impl Tracer {
    /// A tracer whose timestamps count from `base`.
    pub fn new(on: bool, base: Instant) -> Self {
        Self {
            on,
            base,
            aggs: [Agg::default(); Kind::ALL.len()],
            log: Vec::new(),
            root: None,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer's base instant.
    #[inline]
    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Open a root span (an op, or a thread's loop).
    pub fn begin(&mut self, kind: Kind, op: u64) {
        if !self.on {
            return;
        }
        let start = self.now();
        let idx = if self.log.len() < LOG_CAP {
            self.log.push(Span {
                kind,
                parent: NONE,
                op,
                start_ns: start,
                end_ns: start,
            });
            (self.log.len() - 1) as u32
        } else {
            NONE
        };
        self.root = Some((kind, op, start, 0, idx));
    }

    /// Close the open root span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let (kind, _, start, children, idx) = self.root.take().expect("a root span is open");
        let dur = end.saturating_sub(start);
        let agg = &mut self.aggs[kind as usize];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(children);
        agg.units += 1;
        if idx != NONE {
            self.log[idx as usize].end_ns = end;
        }
    }

    /// Record a span `[start, end]` as a child of the open root (or as a
    /// free-standing root when none is open), carrying `units` of work.
    pub fn span(&mut self, kind: Kind, start: u64, end: u64, units: u64) {
        if !self.on {
            return;
        }
        let dur = end.saturating_sub(start);
        let agg = &mut self.aggs[kind as usize];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur;
        agg.units += units;
        let (parent, op) = match &mut self.root {
            Some((_, op, _, children, idx)) => {
                *children += dur;
                (*idx, *op)
            }
            None => (NONE, u64::MAX),
        };
        if self.log.len() < LOG_CAP {
            self.log.push(Span {
                kind,
                parent,
                op,
                start_ns: start,
                end_ns: end,
            });
        }
    }

    /// Totals for one kind.
    pub fn agg(&self, kind: Kind) -> Agg {
        self.aggs[kind as usize]
    }

    /// Fold another tracer's totals and log into this one (the sharded
    /// workload traces each thread separately). Parent indices of the
    /// appended spans are rebased.
    pub fn absorb(&mut self, other: Tracer) {
        for (mine, theirs) in self.aggs.iter_mut().zip(other.aggs) {
            mine.count += theirs.count;
            mine.total_ns += theirs.total_ns;
            mine.self_ns += theirs.self_ns;
            mine.units += theirs.units;
        }
        let offset = self.log.len() as u32;
        for mut span in other.log {
            if self.log.len() >= LOG_CAP {
                break;
            }
            if span.parent != NONE {
                span.parent += offset;
            }
            self.log.push(span);
        }
    }

    /// The span log as tab-separated text: index, name, parent, op,
    /// start and end in ns.
    pub fn log_tsv(&self) -> String {
        let mut out = String::from("index\tname\tparent\top\tstart_ns\tend_ns\n");
        for (i, s) in self.log.iter().enumerate() {
            let parent = if s.parent == NONE {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let op = if s.op == u64::MAX {
                "-".to_string()
            } else {
                s.op.to_string()
            };
            let _ = writeln!(
                out,
                "{i}\t{}\t{parent}\t{op}\t{}\t{}",
                s.kind.name(),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

/// The process's peak resident set (VmHWM) in MiB, from
/// `/proc/self/status`; `None` where that file is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_bucket_means() {
        let mut h = Hist::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        let p50 = h.quantile(0.5);
        assert!((p50 - 500.0).abs() / 500.0 < 0.02, "{p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 990.0).abs() / 990.0 < 0.02, "{p99}");
        assert_eq!(h.quantile(1e-9), 1.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.begin(Kind::Op, 7);
        let s = t.now();
        t.span(Kind::Send, s, s + 100, 1);
        t.end();
        let op = t.agg(Kind::Op);
        assert_eq!(op.count, 1);
        assert_eq!(op.self_ns, op.total_ns.saturating_sub(100));
        assert_eq!(t.agg(Kind::Send).total_ns, 100);
        assert!(t.log_tsv().contains("stack.send\t0\t7"));
    }
}
