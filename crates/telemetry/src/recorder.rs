//! The [`Recorder`] handle that hot paths record through.

use std::sync::{Arc, Mutex};

use crate::counter::{CounterId, Counters};
use crate::event::{CloseCause, Event, EventRing};
use crate::histogram::Histogram;
use crate::snapshot::Snapshot;

/// Identity of one of the fixed sample histograms.
///
/// Like [`CounterId`], the set is closed and array-indexed so recording
/// never allocates and exports have a stable schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum HistogramId {
    /// PCBs examined per demultiplexer lookup — the paper's cost metric,
    /// as a distribution rather than the §3.4 mean-only trap.
    Examined,
    /// Frames per receive batch.
    RxBatchSize,
    /// Re-armed retransmission timeouts, in stack ticks, one sample per
    /// RTO backoff.
    RtoTicks,
    /// Entries displaced per cuckoo insert (0 for the common
    /// free-slot-in-either-bucket case), one sample per insert.
    CuckooInsertKicks,
    /// Congestion-window size in bytes, sampled whenever the congestion
    /// controller moves it — the distribution behind the AIMD sawtooth.
    CwndBytes,
    /// Front-filter slot occupancy in percent of capacity, sampled after
    /// each filter insert — the load level the false-positive rate rides.
    FrontOccupancy,
}

impl HistogramId {
    /// Every histogram, in export order.
    pub const ALL: [HistogramId; 6] = [
        HistogramId::Examined,
        HistogramId::RxBatchSize,
        HistogramId::RtoTicks,
        HistogramId::CuckooInsertKicks,
        HistogramId::CwndBytes,
        HistogramId::FrontOccupancy,
    ];

    /// Stable snake_case name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            HistogramId::Examined => "examined",
            HistogramId::RxBatchSize => "rx_batch_size",
            HistogramId::RtoTicks => "rto_ticks",
            HistogramId::CuckooInsertKicks => "cuckoo_insert_kicks",
            HistogramId::CwndBytes => "cwnd_bytes",
            HistogramId::FrontOccupancy => "front_occupancy",
        }
    }
}

impl core::fmt::Display for HistogramId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything one recorder accumulates: fixed counter and histogram
/// arrays plus the pre-allocated event ring.
#[derive(Debug)]
struct Telemetry {
    counters: Counters,
    histograms: [Histogram; HistogramId::ALL.len()],
    ring: EventRing,
}

impl Telemetry {
    fn new(ring_capacity: usize) -> Self {
        Self {
            counters: Counters::new(),
            histograms: std::array::from_fn(|_| Histogram::new()),
            ring: EventRing::with_capacity(ring_capacity),
        }
    }

    /// Record an event and bump its correlated counters/histograms.
    /// Every event kind maps to exactly one counter family, so the
    /// counters, histograms and trace can never drift apart.
    fn event(&mut self, event: Event) {
        match event {
            Event::DemuxHit {
                examined,
                cache_hit,
            } => {
                self.counters.incr(CounterId::Lookups);
                self.counters.incr(CounterId::DemuxHits);
                self.counters
                    .add(CounterId::PcbsExamined, u64::from(examined));
                if cache_hit {
                    self.counters.incr(CounterId::CacheHits);
                }
                self.histograms[HistogramId::Examined as usize].record(examined);
            }
            Event::DemuxMiss { examined } => {
                self.counters.incr(CounterId::Lookups);
                self.counters.incr(CounterId::DemuxMisses);
                self.counters
                    .add(CounterId::PcbsExamined, u64::from(examined));
                self.histograms[HistogramId::Examined as usize].record(examined);
            }
            Event::ConnOpen => self.counters.incr(CounterId::ConnOpened),
            Event::ConnClose { cause } => {
                self.counters.incr(CounterId::ConnClosed);
                if cause != CloseCause::Graceful {
                    self.counters.incr(CounterId::ConnAborted);
                }
            }
            Event::Retransmit { .. } => self.counters.incr(CounterId::Retransmits),
            Event::RtoBackoff { rto_ticks, .. } => {
                self.counters.incr(CounterId::RtoBackoffs);
                self.histograms[HistogramId::RtoTicks as usize]
                    .record(u32::try_from(rto_ticks).unwrap_or(u32::MAX));
            }
            Event::Timeout => self.counters.incr(CounterId::TimeoutAborts),
            Event::FastRetransmit { .. } => self.counters.incr(CounterId::FastRetransmits),
            Event::DelayedAck => self.counters.incr(CounterId::DelayedAcks),
            Event::ZeroWindowProbe => self.counters.incr(CounterId::ZeroWindowProbes),
            Event::RwndStall => self.counters.incr(CounterId::RwndStalls),
        }
        self.ring.push(event);
    }
}

/// Default event-ring capacity for [`Recorder::new`].
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// The cloneable recording handle.
///
/// Clones share one underlying store, so a [`Recorder`] can be handed to
/// a demux suite entry, a stack, and a bench harness at the same time and
/// all three record into the same snapshot. Recording takes an
/// uncontended mutex and touches fixed arrays — it never allocates in
/// steady state (a test under `tests/` pins this with a counting
/// allocator).
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<Mutex<Telemetry>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A fresh recorder with the default event-ring capacity
    /// ([`DEFAULT_RING_CAPACITY`]).
    pub fn new() -> Self {
        Self::with_ring_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A fresh recorder whose event ring holds at most `capacity`
    /// events (0 disables the trace; counters and histograms still
    /// record).
    pub fn with_ring_capacity(capacity: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(Telemetry::new(capacity))),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Telemetry> {
        // Recording never panics while holding the lock, so poisoning
        // cannot arise from this crate; recover rather than propagate.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Add `delta` to a counter.
    pub fn add(&self, id: CounterId, delta: u64) {
        self.lock().counters.add(id, delta);
    }

    /// Increment a counter by one.
    pub fn incr(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Record one sample into a histogram.
    pub fn observe(&self, id: HistogramId, value: u32) {
        self.lock().histograms[id as usize].record(value);
    }

    /// Record a structured event. The matching counters (and, for demux
    /// and RTO events, histograms) update in the same call, so the trace
    /// and the aggregates can never disagree.
    pub fn event(&self, event: Event) {
        self.lock().event(event);
    }

    /// Record the outcome of one demultiplexer lookup: `examined` PCBs
    /// touched, whether a PCB was `found`, and whether a one-entry
    /// `cache_hit` answered it. Shorthand for the matching
    /// [`Event::DemuxHit`]/[`Event::DemuxMiss`].
    pub fn demux_lookup(&self, examined: u32, found: bool, cache_hit: bool) {
        self.event(if found {
            Event::DemuxHit {
                examined,
                cache_hit,
            }
        } else {
            Event::DemuxMiss { examined }
        });
    }

    /// Record one receive batch of `size` frames.
    pub fn batch(&self, size: u32) {
        let mut t = self.lock();
        t.counters.incr(CounterId::Batches);
        t.histograms[HistogramId::RxBatchSize as usize].record(size);
    }

    /// Record one cuckoo insert: `kicks` entries displaced to their
    /// alternate bucket on the way to a vacancy (sampled into the
    /// `cuckoo_insert_kicks` histogram), and whether the bounded search
    /// failed outright (`eviction_loop`, forcing a grow-and-rehash). One
    /// lock acquisition for all three updates.
    pub fn cuckoo_insert(&self, kicks: u32, eviction_loop: bool) {
        let mut t = self.lock();
        t.counters.add(CounterId::CuckooKicks, u64::from(kicks));
        if eviction_loop {
            t.counters.incr(CounterId::CuckooEvictionLoops);
        }
        t.histograms[HistogramId::CuckooInsertKicks as usize].record(kicks);
    }

    /// An owned, independent copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let t = self.lock();
        Snapshot::assemble(
            t.counters,
            t.histograms.clone(),
            t.ring.to_vec(),
            t.ring.recorded(),
            t.ring.dropped(),
        )
    }

    /// Zero every counter and histogram and empty the event ring
    /// (allocations are kept). Used between warm-up and measured runs.
    pub fn reset(&self) {
        let mut t = self.lock();
        t.counters.reset();
        for h in &mut t.histograms {
            *h = Histogram::new();
        }
        t.ring.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_ids_are_indexed_in_order() {
        for (i, id) in HistogramId::ALL.iter().enumerate() {
            assert_eq!(*id as usize, i, "{id} out of order in ALL");
        }
    }

    #[test]
    fn demux_lookup_updates_counters_histogram_and_trace() {
        let r = Recorder::new();
        r.demux_lookup(3, true, false);
        r.demux_lookup(19, true, true);
        r.demux_lookup(40, false, false);
        let snap = r.snapshot();
        assert_eq!(snap.counter(CounterId::Lookups), 3);
        assert_eq!(snap.counter(CounterId::DemuxHits), 2);
        assert_eq!(snap.counter(CounterId::DemuxMisses), 1);
        assert_eq!(snap.counter(CounterId::CacheHits), 1);
        assert_eq!(snap.counter(CounterId::PcbsExamined), 62);
        let h = snap.histogram(HistogramId::Examined);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 40);
        assert_eq!(snap.events().len(), 3);
    }

    #[test]
    fn lifecycle_events_feed_their_counters() {
        let r = Recorder::new();
        r.event(Event::ConnOpen);
        r.event(Event::ConnClose {
            cause: CloseCause::Graceful,
        });
        r.event(Event::ConnClose {
            cause: CloseCause::Timeout,
        });
        r.event(Event::Retransmit { attempt: 1 });
        r.event(Event::RtoBackoff {
            attempts: 1,
            rto_ticks: 16,
        });
        r.event(Event::Timeout);
        let snap = r.snapshot();
        assert_eq!(snap.counter(CounterId::ConnOpened), 1);
        assert_eq!(snap.counter(CounterId::ConnClosed), 2);
        assert_eq!(snap.counter(CounterId::ConnAborted), 1);
        assert_eq!(snap.counter(CounterId::Retransmits), 1);
        assert_eq!(snap.counter(CounterId::RtoBackoffs), 1);
        assert_eq!(snap.counter(CounterId::TimeoutAborts), 1);
        assert_eq!(snap.histogram(HistogramId::RtoTicks).count(), 1);
        assert_eq!(snap.histogram(HistogramId::RtoTicks).max(), 16);
        assert_eq!(snap.events_recorded(), 6);
    }

    #[test]
    fn clones_share_the_store_and_reset_clears_it() {
        let r = Recorder::new();
        let handle = r.clone();
        handle.batch(32);
        handle.incr(CounterId::Lookups);
        assert_eq!(r.snapshot().counter(CounterId::Batches), 1);
        assert_eq!(r.snapshot().histogram(HistogramId::RxBatchSize).max(), 32);
        r.reset();
        let snap = handle.snapshot();
        assert_eq!(snap.counter(CounterId::Batches), 0);
        assert_eq!(snap.counter(CounterId::Lookups), 0);
        assert!(snap.histogram(HistogramId::RxBatchSize).is_empty());
        assert_eq!(snap.events_recorded(), 0);
    }

    #[test]
    fn cuckoo_insert_updates_counters_and_histogram() {
        let r = Recorder::new();
        r.cuckoo_insert(0, false);
        r.cuckoo_insert(3, false);
        r.cuckoo_insert(0, true);
        let snap = r.snapshot();
        assert_eq!(snap.counter(CounterId::CuckooKicks), 3);
        assert_eq!(snap.counter(CounterId::CuckooEvictionLoops), 1);
        let h = snap.histogram(HistogramId::CuckooInsertKicks);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 3);
    }

    #[test]
    fn snapshot_is_independent_of_later_recording() {
        let r = Recorder::new();
        r.incr(CounterId::Lookups);
        let snap = r.snapshot();
        r.incr(CounterId::Lookups);
        assert_eq!(snap.counter(CounterId::Lookups), 1);
        assert_eq!(r.snapshot().counter(CounterId::Lookups), 2);
    }
}
