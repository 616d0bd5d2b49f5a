//! The PCB demultiplexing algorithms of McKenney & Dove (SIGCOMM 1992).
//!
//! When a TCP segment arrives, the stack must find the protocol control
//! block (PCB) for its connection. This crate implements every lookup
//! scheme the paper analyzes, behind one instrumented trait:
//!
//! | Type | Paper §, name | Structure |
//! |------|---------------|-----------|
//! | [`BsdDemux`] | §3.1, "BSD" | one linear list + one-entry cache |
//! | [`MtfDemux`] | §3.2, "move to front" (Crowcroft) | one linear list, found PCB pulled to head |
//! | [`SendRecvDemux`] | §3.3, last-sent/last-received (Partridge & Pink) | one linear list + send cache + receive cache |
//! | [`SequentDemux`] | §3.4, "Sequent" | `H` hash chains, each with a one-entry cache |
//! | [`HashedMtfDemux`] | §3.5, the combination the paper weighs | `H` hash chains with move-to-front |
//! | [`DirectDemux`] | §3.5, connection-ID strawman (TP4/X.25/XTP) | direct index, 1 probe by construction |
//! | [`CuckooDemux`] | beyond the paper: Cuckoo++-style flow table | 4-way one-cache-line tagged buckets, ≤ 2 lines per lookup at any N |
//! | [`ConcurrentCuckooDemux`] | — concurrent twin | seqlocked buckets read under an [`epoch`] pin, writers serialized |
//! | [`concurrent::ShardedDemux`] | \[Dov90\] parallel-TCP setting | hash chains with per-chain locks |
//!
//! The figure of merit throughout the paper — and therefore the unit this
//! crate counts — is the **number of PCBs examined** per lookup. A cache
//! probe that compares a key against a cached PCB examines one PCB; a scan
//! that compares against `k` chain entries examines `k` PCBs. Every
//! [`Demux::lookup`] reports its exact count, and running totals accumulate
//! in [`LookupStats`].
//!
//! # Batched lookups
//!
//! [`Demux::lookup_batch`] resolves a burst of arriving keys in one call.
//! The hashed structures override it to group the batch by chain so each
//! chain is walked at most once per batch — same results, same `examined`
//! counts, same [`LookupStats`] as the sequential loop (a property test
//! pins this), but with far better cache locality and amortized dispatch.
//!
//! # Suites
//!
//! Experiments that compare every algorithm build a [`standard_suite`] (or
//! [`extended_suite`]) of [`SuiteEntry`] values, which pair each boxed
//! algorithm with its display name captured at construction time.
//!
//! # Example
//!
//! ```
//! use tcpdemux_core::{Demux, PacketKind, SequentDemux};
//! use tcpdemux_hash::XorFold;
//! use tcpdemux_pcb::{ConnectionKey, Pcb, PcbArena};
//! use std::net::Ipv4Addr;
//!
//! let mut arena = PcbArena::new();
//! let mut demux = SequentDemux::new(XorFold, 19); // the paper's default H
//!
//! let key = ConnectionKey::new(
//!     Ipv4Addr::new(10, 0, 0, 1), 1521,
//!     Ipv4Addr::new(10, 0, 7, 7), 40123,
//! );
//! let id = arena.insert(Pcb::new(key));
//! demux.insert(key, id);
//!
//! let result = demux.lookup(&key, PacketKind::Data);
//! assert_eq!(result.pcb, Some(id));
//! assert_eq!(result.examined, 1); // per-chain cache hit
//! ```

#![deny(missing_docs)]
// `deny` rather than `forbid`: the [`prefetch`] module carries the
// workspace's single audited `unsafe` block (a faultless `prefetcht0`
// hint) under a targeted `#[allow]`; everything else stays unsafe-free.
#![deny(unsafe_code)]

mod adaptive;
mod batch;
mod bsd;
pub mod concurrent;
pub mod cuckoo;
mod direct;
pub mod epoch;
pub mod front;
mod hashed_mtf;
mod list;
mod mtf;
pub mod prefetch;
mod sequent;
pub mod spsc;
mod srcache;
mod stats;
mod suite;

pub use adaptive::AdaptiveDemux;
pub use bsd::BsdDemux;
pub use cuckoo::{ConcurrentCuckooDemux, CuckooDemux, CuckooStats};
pub use direct::DirectDemux;
pub use front::{FrontDemux, FrontFilter, FrontFilterStats, FrontStats};
pub use hashed_mtf::HashedMtfDemux;
pub use list::PcbList;
pub use mtf::MtfDemux;
pub use sequent::SequentDemux;
pub use spsc::{spsc_ring, RingStats, SpscConsumer, SpscProducer};
pub use srcache::SendRecvDemux;
pub use stats::{AtomicLookupStats, LookupStats};
pub use suite::{extended_suite, standard_suite, SuiteEntry};
// The per-lookup cost histogram was born in this crate and moved to the
// telemetry subsystem; re-exported so cost-distribution code keeps one
// canonical type.
pub use tcpdemux_telemetry::Histogram;

use tcpdemux_pcb::{ConnectionKey, PcbId};

/// What kind of packet a lookup is for.
///
/// Most algorithms ignore this; the Partridge–Pink send/receive cache
/// examines its receive-side cache first for data packets and its send-side
/// cache first for acknowledgements (paper §3.3, footnote 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// A data-bearing segment (transaction entry, response, bulk data).
    Data,
    /// A pure acknowledgement.
    Ack,
}

/// The outcome of one demultiplexing lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupResult {
    /// The PCB found, or `None` if no connection matches.
    pub pcb: Option<PcbId>,
    /// Number of PCBs examined (cache probes plus chain entries scanned).
    pub examined: u32,
    /// Whether the result came from a one-entry cache.
    pub cache_hit: bool,
}

impl LookupResult {
    fn miss(examined: u32) -> Self {
        Self {
            pcb: None,
            examined,
            cache_hit: false,
        }
    }
}

/// A PCB demultiplexer: maps arriving segments' connection keys to PCBs.
///
/// Implementations are single-threaded; see [`concurrent`] for the
/// lock-per-chain variant. Keys are unique: inserting a key that is already
/// present replaces its PCB handle (matching BSD `in_pcbconnect` semantics,
/// where a fully-specified PCB exists at most once).
///
/// The `Send` bound exists for the sharded runtime: each shard owns its
/// demux exclusively (single-threaded use), but shard ownership moves to
/// a worker thread, so the structure itself must be transferable.
pub trait Demux: Send {
    /// Add a connection. Called when a PCB becomes fully specified.
    fn insert(&mut self, key: ConnectionKey, id: PcbId);

    /// Remove a connection, returning its handle if it was present.
    fn remove(&mut self, key: &ConnectionKey) -> Option<PcbId>;

    /// Find the PCB for an arriving packet, counting PCBs examined.
    fn lookup(&mut self, key: &ConnectionKey, kind: PacketKind) -> LookupResult;

    /// Resolve a whole batch of arriving packets in one call.
    ///
    /// Clears `out` and appends exactly one [`LookupResult`] per key, in
    /// key order. The default implementation is the sequential per-packet
    /// loop; hashed structures override it to group the batch by chain so
    /// each chain is walked at most once. Every override must preserve the
    /// sequential semantics exactly — identical results, per-lookup
    /// `examined` counts, and accumulated [`LookupStats`] as calling
    /// [`Demux::lookup`] on each key in order.
    fn lookup_batch(&mut self, keys: &[(ConnectionKey, PacketKind)], out: &mut Vec<LookupResult>) {
        out.clear();
        out.reserve(keys.len());
        for (key, kind) in keys {
            out.push(self.lookup(key, *kind));
        }
    }

    /// Notify the structure that a packet was *sent* on a connection.
    /// Only the send/receive cache uses this; default is a no-op.
    fn note_send(&mut self, _key: &ConnectionKey) {}

    /// Number of connections currently installed.
    fn len(&self) -> usize;

    /// Whether no connections are installed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Algorithm name for reports (e.g. `"bsd"`, `"sequent(19)"`).
    fn name(&self) -> String;

    /// Accumulated lookup statistics.
    fn stats(&self) -> &LookupStats;

    /// Reset accumulated statistics (connections stay installed).
    fn reset_stats(&mut self);
}

// Deref-forwarding impl so a boxed tier is itself a tier. This is what
// lets [`front::FrontDemux`] (or any future wrapper) compose over the
// `Box<dyn Demux>` a [`StackConfig`] demux factory produces.
//
// [`StackConfig`]: ../tcpdemux_stack/struct.StackConfig.html
impl<D: Demux + ?Sized> Demux for Box<D> {
    fn insert(&mut self, key: ConnectionKey, id: PcbId) {
        (**self).insert(key, id);
    }

    fn remove(&mut self, key: &ConnectionKey) -> Option<PcbId> {
        (**self).remove(key)
    }

    fn lookup(&mut self, key: &ConnectionKey, kind: PacketKind) -> LookupResult {
        (**self).lookup(key, kind)
    }

    fn lookup_batch(&mut self, keys: &[(ConnectionKey, PacketKind)], out: &mut Vec<LookupResult>) {
        (**self).lookup_batch(keys, out);
    }

    fn note_send(&mut self, key: &ConnectionKey) {
        (**self).note_send(key);
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn stats(&self) -> &LookupStats {
        (**self).stats()
    }

    fn reset_stats(&mut self) {
        (**self).reset_stats();
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    //! Shared helpers for the per-algorithm test modules.
    use super::*;
    use std::net::Ipv4Addr;
    use tcpdemux_pcb::{Pcb, PcbArena};

    /// Deterministic distinct key for test index `n`.
    pub fn key(n: u32) -> ConnectionKey {
        ConnectionKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            1521,
            Ipv4Addr::from(0x0a01_0000 + n),
            (40_000 + (n % 20_000)) as u16,
        )
    }

    /// Install `n` connections into a demux and return their ids.
    pub fn populate(demux: &mut dyn Demux, arena: &mut PcbArena, n: u32) -> Vec<PcbId> {
        (0..n)
            .map(|i| {
                let k = key(i);
                let id = arena.insert(Pcb::new(k));
                demux.insert(k, id);
                id
            })
            .collect()
    }

    /// Exercise the common contract every demux must satisfy.
    pub fn check_contract(mut demux: Box<dyn Demux>) {
        let mut arena = PcbArena::new();
        let ids = populate(demux.as_mut(), &mut arena, 50);
        assert_eq!(demux.len(), 50);
        assert!(!demux.is_empty());

        // Every installed key is found, with a sane examined count.
        for (i, &id) in ids.iter().enumerate() {
            let r = demux.lookup(&key(i as u32), PacketKind::Data);
            assert_eq!(r.pcb, Some(id), "{} lost key {}", demux.name(), i);
            assert!(r.examined >= 1);
            assert!(r.examined <= 53, "{} examined {}", demux.name(), r.examined);
        }

        // A missing key is not found; the cost is bounded by the whole
        // structure (and may be zero if it hashes to an empty chain).
        let r = demux.lookup(&key(999), PacketKind::Data);
        assert_eq!(r.pcb, None);
        assert!(r.examined <= 53);

        // Ack lookups behave like data lookups w.r.t. correctness.
        let r = demux.lookup(&key(7), PacketKind::Ack);
        assert_eq!(r.pcb, Some(ids[7]));

        // Remove works and is idempotent.
        assert_eq!(demux.remove(&key(7)), Some(ids[7]));
        assert_eq!(demux.remove(&key(7)), None);
        assert_eq!(demux.len(), 49);
        assert_eq!(demux.lookup(&key(7), PacketKind::Data).pcb, None);

        // Reinsertion with a new id replaces cleanly.
        let new_id = arena.insert(Pcb::new(key(7)));
        demux.insert(key(7), new_id);
        assert_eq!(demux.lookup(&key(7), PacketKind::Data).pcb, Some(new_id));

        // Duplicate insert replaces the handle rather than duplicating.
        let newer_id = arena.insert(Pcb::new(key(7)));
        demux.insert(key(7), newer_id);
        assert_eq!(demux.len(), 50);
        assert_eq!(demux.lookup(&key(7), PacketKind::Data).pcb, Some(newer_id));

        // Stats accumulated.
        assert!(demux.stats().lookups > 0);
        let lookups_before = demux.stats().lookups;
        demux.reset_stats();
        assert_eq!(demux.stats().lookups, 0);
        assert!(lookups_before > 0);

        // note_send never corrupts state.
        demux.note_send(&key(3));
        assert_eq!(demux.lookup(&key(3), PacketKind::Data).pcb, Some(ids[3]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpdemux_hash::XorFold;

    #[test]
    fn all_algorithms_satisfy_the_contract() {
        let demuxes: Vec<Box<dyn Demux>> = vec![
            Box::new(BsdDemux::new()),
            Box::new(MtfDemux::new()),
            Box::new(SendRecvDemux::new()),
            Box::new(SequentDemux::new(XorFold, 19)),
            Box::new(SequentDemux::new(XorFold, 1)),
            Box::new(HashedMtfDemux::new(XorFold, 19)),
            Box::new(DirectDemux::new()),
            Box::new(CuckooDemux::new()),
            Box::new(FrontDemux::new(SequentDemux::new(XorFold, 19))),
            Box::new(FrontDemux::new(CuckooDemux::new())),
        ];
        for demux in demuxes {
            test_util::check_contract(demux);
        }
    }

    #[test]
    fn batch_lookup_matches_sequential() {
        // A twin of every algorithm (including the specialized overrides)
        // fed the same stream: batched results, per-lookup costs, and
        // final statistics must be identical to the one-at-a-time loop.
        // The root-level property test generalizes this over random
        // streams and batch boundaries.
        use tcpdemux_hash::Multiplicative;
        use tcpdemux_pcb::{Pcb, PcbArena};

        let make: Vec<fn() -> Box<dyn Demux>> = vec![
            || Box::new(BsdDemux::new()),
            || Box::new(MtfDemux::new()),
            || Box::new(SendRecvDemux::new()),
            || Box::new(SequentDemux::new(XorFold, 7)),
            || Box::new(SequentDemux::new(XorFold, 7).without_cache()),
            || Box::new(SequentDemux::new(Multiplicative, 19)),
            || Box::new(HashedMtfDemux::new(XorFold, 7)),
            || Box::new(DirectDemux::new()),
            || Box::new(AdaptiveDemux::new(Multiplicative, 4, 4)),
            || Box::new(CuckooDemux::new()),
            || Box::new(FrontDemux::new(SequentDemux::new(Multiplicative, 19))),
            || Box::new(FrontDemux::new(CuckooDemux::new())),
        ];
        for f in make {
            let mut seq = f();
            let mut bat = f();
            let mut arena = PcbArena::new();
            for i in 0..60u32 {
                let k = test_util::key(i);
                let id = arena.insert(Pcb::new(k));
                seq.insert(k, id);
                bat.insert(k, id);
            }
            // Mix of hits, repeats (cache/train behaviour), and misses.
            let keys: Vec<(ConnectionKey, PacketKind)> = (0..300u32)
                .map(|i| {
                    let n = (i * 17 + 3) % 75; // 60 live + 15 misses
                    let kind = if i % 3 == 0 {
                        PacketKind::Ack
                    } else {
                        PacketKind::Data
                    };
                    (test_util::key(n), kind)
                })
                .collect();
            let mut out = Vec::new();
            for chunk in keys.chunks(13) {
                bat.lookup_batch(chunk, &mut out);
                assert_eq!(out.len(), chunk.len());
                for (j, (k, kind)) in chunk.iter().enumerate() {
                    let r = seq.lookup(k, *kind);
                    assert_eq!(out[j], r, "algorithm {}", seq.name());
                }
            }
            assert_eq!(seq.stats(), bat.stats(), "algorithm {}", seq.name());
        }
    }
}
