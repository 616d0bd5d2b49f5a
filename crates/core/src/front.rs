//! A cache-resident fingerprint front filter for miss-dominated traffic.
//!
//! The paper's figure of merit — PCBs examined per received packet —
//! assumes most packets *hit* a connection. Under firewall/IPS-style
//! traffic the common case is a **miss**, and every miss still walks a
//! Sequent chain (N/chains nodes) or probes two cuckoo cache lines
//! before concluding "no such flow". CuCoTrack and Cuckoo++ (PAPERS.md)
//! both put a cuckoo filter of compact fingerprints *in front of* the
//! flow table: negative lookups are answered from a structure small
//! enough to stay cache-resident, touching one or two 64-bit words
//! instead of PCB chains.
//!
//! [`FrontFilter`] is that structure: 4-way buckets of 16-bit
//! fingerprints packed one bucket per `u64` (a zero lane means empty —
//! fingerprints are forced nonzero — so occupancy rides in the same
//! word the lookup reads). The alternate bucket is derived from the
//! fingerprint by the same involution as [`crate::cuckoo`]
//! (`b ^ spread(fp)`), so displacing an entry never needs the original
//! key's hash. Unlike a classic cuckoo *filter*, a cold exact-key lane
//! (touched only by insert/remove/grow, never by lookups) shadows every
//! fingerprint slot. That one design choice is what makes **false
//! negatives structurally impossible**:
//!
//! * removals are exact — deleting key A can never evict key B's
//!   fingerprint, the failure mode that forces probabilistic filters to
//!   either ban deletion or accept false negatives;
//! * growth rehashes the stored keys, not the fingerprints, so a grown
//!   table re-derives every home bucket from the full 64-bit hash;
//! * duplicate inserts are detected exactly, keeping filter occupancy
//!   equal to the backing table's population.
//!
//! [`FrontDemux`] keeps a `FrontFilter` in exact sync with any backing
//! [`Demux`]: every insert/remove goes to both, every lookup probes the
//! filter first and early-returns a zero-cost miss on reject.

use crate::cuckoo::hash_words;
use crate::prefetch::prefetch_read;
use crate::stats::LookupStats;
use crate::{Demux, LookupResult, PacketKind};
use tcpdemux_pcb::{ConnectionKey, PcbId};
use tcpdemux_telemetry::{CounterId, HistogramId, Recorder};

/// Fingerprint lanes per bucket; four 16-bit lanes fill one `u64`.
const WAYS: usize = 4;
/// Starting bucket count (32 slots); doubles on growth.
const INITIAL_BUCKETS: usize = 8;
/// Bound on the displacement walk before giving up and growing.
const MAX_KICKS: usize = 128;
/// Grow when occupancy would exceed 15/16 of capacity.
const OCCUPANCY_NUM: usize = 15;
const OCCUPANCY_DEN: usize = 16;

/// 16-bit fingerprint from bits 40..56 of the shared 64-bit hash —
/// disjoint from the bucket-index low bits and from the cuckoo tier's
/// tag byte (bits 56..64). Forced nonzero so a zero lane can mean
/// "empty" without a separate occupancy word on the lookup path.
#[inline]
fn fingerprint(h: u64) -> u16 {
    let fp = (h >> 40) as u16;
    if fp == 0 {
        1
    } else {
        fp
    }
}

/// The alternate bucket: `b ^ spread(fp)`. Same involution shape as
/// `cuckoo::alt` — `| 1` keeps the xor delta nonzero under any mask, so
/// the two candidate buckets are always distinct, and applying it twice
/// returns to `b`. Because the delta depends only on the fingerprint, a
/// kick can move an entry between its two buckets without rehashing.
#[inline]
fn alt(b: usize, fp: u16, mask: usize) -> usize {
    b ^ ((usize::from(fp).wrapping_mul(0x5bd1_e995) | 1) & mask)
}

/// Does any 16-bit lane of `word` equal `fp`? Branch-free SWAR: xor
/// makes matching lanes zero, then the classic haszero test lights the
/// high bit of each zero lane. Empty lanes hold 0 and `fp` is never 0,
/// so empties can't match.
#[inline]
fn word_has(word: u64, fp: u16) -> bool {
    let x = word ^ (u64::from(fp) * 0x0001_0001_0001_0001);
    (x.wrapping_sub(0x0001_0001_0001_0001) & !x & 0x8000_8000_8000_8000) != 0
}

#[inline]
fn lane_fp(word: u64, lane: usize) -> u16 {
    (word >> (lane * 16)) as u16
}

#[inline]
fn set_lane(word: u64, lane: usize, fp: u16) -> u64 {
    let shift = lane * 16;
    (word & !(0xffffu64 << shift)) | (u64::from(fp) << shift)
}

/// Maintenance statistics for a [`FrontFilter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontFilterStats {
    /// Keys currently stored.
    pub len: usize,
    /// Fingerprint slots (buckets × 4).
    pub capacity: usize,
    /// Entries displaced to their alternate bucket by inserts (kicks),
    /// including displacements performed while rehashing.
    pub kicks: u64,
    /// Times the table doubled.
    pub grows: u64,
}

/// The cuckoo fingerprint table: hot `u64` fingerprint words for
/// lookups, a cold exact-key lane for maintenance.
///
/// At N=1M the hot array is 2 MiB (N/0.9 slots × 2 bytes) — it fits in
/// L2/L3 where the PCB chains it fronts do not, and a negative lookup
/// touches at most two of its words.
pub struct FrontFilter {
    /// One word per bucket: four 16-bit fingerprint lanes, 0 = empty.
    words: Vec<u64>,
    /// Exact key per slot (`bucket * WAYS + lane`); only meaningful
    /// where the fingerprint lane is nonzero. Never read by lookups.
    keys: Vec<[u32; 3]>,
    mask: usize,
    len: usize,
    kicks: u64,
    grows: u64,
}

impl Default for FrontFilter {
    fn default() -> Self {
        Self::new()
    }
}

impl FrontFilter {
    /// An empty filter at the initial size; grows itself as needed.
    pub fn new() -> Self {
        Self::with_buckets(INITIAL_BUCKETS)
    }

    fn with_buckets(buckets: usize) -> Self {
        debug_assert!(buckets.is_power_of_two());
        Self {
            words: vec![0; buckets],
            keys: vec![[0; 3]; buckets * WAYS],
            mask: buckets - 1,
            len: 0,
            kicks: 0,
            grows: 0,
        }
    }

    /// The shared 64-bit hash a key's filter coordinates derive from.
    #[inline]
    pub fn hash(key: &ConnectionKey) -> u64 {
        hash_words(key.as_words())
    }

    /// Keys currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the filter is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fingerprint slots (buckets × 4).
    pub fn capacity(&self) -> usize {
        self.words.len() * WAYS
    }

    /// Maintenance counters and occupancy.
    pub fn stats(&self) -> FrontFilterStats {
        FrontFilterStats {
            len: self.len,
            capacity: self.capacity(),
            kicks: self.kicks,
            grows: self.grows,
        }
    }

    /// Hint the CPU to pull the home-bucket word for `h` into cache.
    #[inline]
    pub fn prefetch(&self, h: u64) {
        prefetch_read(&self.words[(h as usize) & self.mask]);
    }

    /// Might `key` be present? `false` is definitive (the key is
    /// certainly absent); `true` may be a fingerprint collision.
    #[inline]
    pub fn may_contain(&self, key: &ConnectionKey) -> bool {
        self.may_contain_hash(Self::hash(key))
    }

    /// [`FrontFilter::may_contain`] with the hash precomputed (batch
    /// paths hash once, prefetch, then probe).
    #[inline]
    pub fn may_contain_hash(&self, h: u64) -> bool {
        let fp = fingerprint(h);
        let b = (h as usize) & self.mask;
        if word_has(self.words[b], fp) {
            return true;
        }
        word_has(self.words[alt(b, fp, self.mask)], fp)
    }

    /// Slot index of `key` if exactly present (cold-lane comparison).
    fn locate(&self, h: u64, kw: &[u32; 3]) -> Option<usize> {
        let fp = fingerprint(h);
        let b = (h as usize) & self.mask;
        for bucket in [b, alt(b, fp, self.mask)] {
            let word = self.words[bucket];
            for lane in 0..WAYS {
                if lane_fp(word, lane) == fp && self.keys[bucket * WAYS + lane] == *kw {
                    return Some(bucket * WAYS + lane);
                }
            }
            // Distinct buckets are guaranteed by `alt`, so no dedup
            // check is needed before probing the second one.
        }
        None
    }

    /// Add `key`; returns `false` if it was already present (no-op).
    pub fn insert(&mut self, key: &ConnectionKey) -> bool {
        let kw = key.as_words();
        let h = hash_words(kw);
        if self.locate(h, &kw).is_some() {
            return false;
        }
        if (self.len + 1) * OCCUPANCY_DEN > self.capacity() * OCCUPANCY_NUM {
            self.grow();
        }
        // A failed displacement walk leaves the *last victim* in hand —
        // the new key itself went into the table on the walk's first
        // eviction. Grow and keep placing whatever is in hand; the net
        // stored count rises by exactly one once the leftover lands.
        let mut kw = kw;
        loop {
            let h = hash_words(kw);
            match self.place((h as usize) & self.mask, fingerprint(h), kw) {
                None => {
                    self.len += 1;
                    return true;
                }
                Some(leftover) => {
                    kw = leftover;
                    self.grow();
                }
            }
        }
    }

    /// Remove `key` exactly; returns whether it was present.
    pub fn remove(&mut self, key: &ConnectionKey) -> bool {
        let kw = key.as_words();
        match self.locate(hash_words(kw), &kw) {
            Some(slot) => {
                let (bucket, lane) = (slot / WAYS, slot % WAYS);
                self.words[bucket] = set_lane(self.words[bucket], lane, 0);
                self.keys[slot] = [0; 3];
                self.len -= 1;
                true
            }
            None => false,
        }
    }

    /// Place `(fp, kw)` starting at bucket `b`, displacing residents to
    /// their alternate buckets as needed. Returns `None` on success; if
    /// the walk exceeds [`MAX_KICKS`] without finding a vacancy it
    /// returns the key still in hand (the last victim — every earlier
    /// key of the walk, including the one originally being placed, is
    /// in the table).
    #[must_use]
    fn place(&mut self, mut b: usize, mut fp: u16, mut kw: [u32; 3]) -> Option<[u32; 3]> {
        for attempt in 0..MAX_KICKS {
            for bucket in [b, alt(b, fp, self.mask)] {
                let word = self.words[bucket];
                for lane in 0..WAYS {
                    if lane_fp(word, lane) == 0 {
                        self.words[bucket] = set_lane(word, lane, fp);
                        self.keys[bucket * WAYS + lane] = kw;
                        return None;
                    }
                }
            }
            // Both buckets full: evict a resident of `b` (lane rotates
            // with the attempt counter so a cycle can't pin one lane),
            // take its slot, and continue placing the evictee at *its*
            // other bucket — reachable from the fingerprint alone.
            let lane = attempt % WAYS;
            let slot = b * WAYS + lane;
            let (vfp, vkw) = (lane_fp(self.words[b], lane), self.keys[slot]);
            self.words[b] = set_lane(self.words[b], lane, fp);
            self.keys[slot] = kw;
            fp = vfp;
            kw = vkw;
            b = alt(b, fp, self.mask);
            self.kicks += 1;
        }
        Some(kw)
    }

    /// Double the table, rehashing every stored *key* (not fingerprint)
    /// so home buckets are re-derived under the wider mask.
    fn grow(&mut self) {
        let mut buckets = (self.mask + 1) * 2;
        'size: loop {
            let mut next = Self::with_buckets(buckets);
            next.kicks = self.kicks;
            next.grows = self.grows + 1;
            for bucket in 0..self.words.len() {
                let word = self.words[bucket];
                for lane in 0..WAYS {
                    if lane_fp(word, lane) == 0 {
                        continue;
                    }
                    let kw = self.keys[bucket * WAYS + lane];
                    let h = hash_words(kw);
                    // A failed walk here pollutes only `next`, which is
                    // discarded whole; `self` still holds every key, so
                    // the retry at double the size starts clean.
                    if next
                        .place((h as usize) & next.mask, fingerprint(h), kw)
                        .is_some()
                    {
                        buckets *= 2;
                        continue 'size;
                    }
                    next.len += 1;
                }
            }
            self.kicks = next.kicks;
            *self = next;
            return;
        }
    }
}

/// Front-filter outcome counters kept by the wrappers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontStats {
    /// Lookups rejected by the filter without touching the backing tier.
    pub rejects: u64,
    /// Filter passes whose backing lookup then missed (fingerprint
    /// collisions — the filter's false positives).
    pub false_positives: u64,
    /// The filter's own maintenance statistics.
    pub filter: FrontFilterStats,
}

/// A [`Demux`] wrapper that answers misses from a [`FrontFilter`].
///
/// The filter is kept in exact sync with the backing tier: `insert`
/// and `remove` update both, so `key ∈ filter ⟺ key ∈ inner` holds at
/// every quiescent point and a filter reject is always a true miss.
/// Lookups probe the filter first and early-return
/// `LookupResult { pcb: None, examined: 0, .. }` on reject — no PCBs
/// were examined, which is exactly what the paper's cost metric should
/// say about a packet that never touched a PCB chain.
pub struct FrontDemux<D> {
    filter: FrontFilter,
    inner: D,
    stats: LookupStats,
    front: FrontStats,
    recorder: Option<Recorder>,
    scratch_hashes: Vec<u64>,
    scratch_keys: Vec<(ConnectionKey, PacketKind)>,
    scratch_pos: Vec<u32>,
    scratch_out: Vec<LookupResult>,
}

impl<D: Demux> FrontDemux<D> {
    /// Wrap an **empty** backing tier. (The filter mirrors membership
    /// from this point on; for a pre-populated tier use
    /// [`FrontDemux::with_preloaded`].)
    pub fn new(inner: D) -> Self {
        debug_assert!(inner.is_empty(), "filter would start out of sync");
        Self {
            filter: FrontFilter::new(),
            inner,
            stats: LookupStats::new(),
            front: FrontStats::default(),
            recorder: None,
            scratch_hashes: Vec::new(),
            scratch_keys: Vec::new(),
            scratch_pos: Vec::new(),
            scratch_out: Vec::new(),
        }
    }

    /// Wrap a backing tier that already holds exactly `keys` (installed
    /// through a bulk path like `SequentDemux::preload`), seeding the
    /// filter to match so the sync invariant holds from the start.
    pub fn with_preloaded<'a, I>(inner: D, keys: I) -> Self
    where
        I: IntoIterator<Item = &'a ConnectionKey>,
    {
        let mut this = Self {
            filter: FrontFilter::new(),
            inner,
            stats: LookupStats::new(),
            front: FrontStats::default(),
            recorder: None,
            scratch_hashes: Vec::new(),
            scratch_keys: Vec::new(),
            scratch_pos: Vec::new(),
            scratch_out: Vec::new(),
        };
        for key in keys {
            this.filter.insert(key);
        }
        debug_assert_eq!(this.filter.len(), this.inner.len(), "preload out of sync");
        this
    }

    /// Attach a telemetry recorder ([`CounterId::FrontRejects`],
    /// [`CounterId::FrontFalsePositives`],
    /// [`HistogramId::FrontOccupancy`]).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Front-filter outcome counters and filter statistics.
    pub fn front_stats(&self) -> FrontStats {
        FrontStats {
            filter: self.filter.stats(),
            ..self.front
        }
    }

    /// The wrapped backing tier.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    #[inline]
    fn record_reject(&mut self) {
        self.front.rejects += 1;
        if let Some(r) = &self.recorder {
            r.incr(CounterId::FrontRejects);
        }
    }

    #[inline]
    fn record_pass(&mut self, result: &LookupResult) {
        if result.pcb.is_none() {
            self.front.false_positives += 1;
            if let Some(r) = &self.recorder {
                r.incr(CounterId::FrontFalsePositives);
            }
        }
    }
}

impl<D: Demux> Demux for FrontDemux<D> {
    fn insert(&mut self, key: ConnectionKey, id: PcbId) {
        self.filter.insert(&key);
        self.inner.insert(key, id);
        if let Some(r) = &self.recorder {
            let pct = (self.filter.len() * 100 / self.filter.capacity()) as u32;
            r.observe(HistogramId::FrontOccupancy, pct);
        }
    }

    fn remove(&mut self, key: &ConnectionKey) -> Option<PcbId> {
        let removed = self.inner.remove(key);
        if removed.is_some() {
            let was_present = self.filter.remove(key);
            debug_assert!(was_present, "filter out of sync with backing tier");
        }
        removed
    }

    fn lookup(&mut self, key: &ConnectionKey, kind: PacketKind) -> LookupResult {
        if !self.filter.may_contain(key) {
            self.record_reject();
            self.stats.record(0, false, false);
            return LookupResult::miss(0);
        }
        let result = self.inner.lookup(key, kind);
        self.record_pass(&result);
        self.stats
            .record(result.examined, result.pcb.is_some(), result.cache_hit);
        result
    }

    fn lookup_batch(&mut self, keys: &[(ConnectionKey, PacketKind)], out: &mut Vec<LookupResult>) {
        out.clear();
        out.resize(keys.len(), LookupResult::miss(0));
        // Hash every key, prefetch every home-bucket word, then probe:
        // by the time the probe loop reads a word its cache miss has
        // been overlapping with the others' (the same memory-level
        // parallelism the cuckoo batch path exploits).
        self.scratch_hashes.clear();
        self.scratch_hashes
            .extend(keys.iter().map(|(key, _)| FrontFilter::hash(key)));
        for &h in &self.scratch_hashes {
            self.filter.prefetch(h);
        }
        self.scratch_keys.clear();
        self.scratch_pos.clear();
        for (i, &(key, kind)) in keys.iter().enumerate() {
            if self.filter.may_contain_hash(self.scratch_hashes[i]) {
                self.scratch_keys.push((key, kind));
                self.scratch_pos.push(i as u32);
            } else {
                self.record_reject();
                self.stats.record(0, false, false);
            }
        }
        // Only survivors reach the backing tier, through its own batch
        // walk. The inner batch path preserves its sequential semantics
        // on the survivor subsequence, so the whole wrapper does too.
        self.inner
            .lookup_batch(&self.scratch_keys, &mut self.scratch_out);
        for j in 0..self.scratch_pos.len() {
            let (pos, result) = (self.scratch_pos[j] as usize, self.scratch_out[j]);
            self.record_pass(&result);
            self.stats
                .record(result.examined, result.pcb.is_some(), result.cache_hit);
            out[pos] = result;
        }
    }

    fn note_send(&mut self, key: &ConnectionKey) {
        self.inner.note_send(key);
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn name(&self) -> String {
        format!("front+{}", self.inner.name())
    }

    fn stats(&self) -> &LookupStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = LookupStats::new();
        self.inner.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{check_contract, key};
    use crate::{CuckooDemux, SequentDemux};
    use std::collections::BTreeSet;
    use tcpdemux_hash::Multiplicative;
    use tcpdemux_pcb::{Pcb, PcbArena};

    #[test]
    fn swar_lane_match_equals_reference_loop() {
        // The branch-free haszero test against the obvious loop, over
        // words with empty lanes, duplicate lanes, and near-miss values.
        let lanes: [u16; 7] = [0, 1, 0x00ff, 0x0100, 0x7fff, 0x8000, 0xffff];
        for &a in &lanes {
            for &b in &lanes {
                for &c in &lanes {
                    for &d in &lanes {
                        let word = u64::from(a)
                            | (u64::from(b) << 16)
                            | (u64::from(c) << 32)
                            | (u64::from(d) << 48);
                        for &fp in &[1u16, 0x00ff, 0x0100, 0x7fff, 0x8000, 0xffff] {
                            let reference = (0..WAYS).any(|l| lane_fp(word, l) == fp);
                            assert_eq!(word_has(word, fp), reference, "word={word:#x} fp={fp:#x}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn alt_bucket_is_a_distinct_involution() {
        for mask in [7usize, 63, 1023] {
            for fp in [1u16, 2, 0x1234, 0xffff] {
                for b in 0..=mask {
                    let a = alt(b, fp, mask);
                    assert_ne!(a, b, "candidate buckets must differ");
                    assert_eq!(alt(a, fp, mask), b, "alt must be an involution");
                }
            }
        }
    }

    #[test]
    fn filter_tracks_membership_exactly_under_churn() {
        // Exact (not probabilistic) agreement on *inserted* keys: every
        // present key passes, every removed key's exact entry is gone.
        let mut filter = FrontFilter::new();
        let mut oracle = BTreeSet::new();
        for round in 0u32..3 {
            for i in 0..600 {
                let k = key(i);
                if (i + round) % 3 == 0 {
                    assert_eq!(filter.remove(&k), oracle.remove(&k));
                } else {
                    assert_eq!(filter.insert(&k), oracle.insert(k));
                }
                assert_eq!(filter.len(), oracle.len());
            }
            for i in 0..600 {
                let k = key(i);
                if oracle.contains(&k) {
                    assert!(filter.may_contain(&k), "false negative for key {i}");
                }
            }
        }
    }

    #[test]
    fn duplicate_insert_is_a_noop() {
        let mut filter = FrontFilter::new();
        assert!(filter.insert(&key(1)));
        assert!(!filter.insert(&key(1)));
        assert_eq!(filter.len(), 1);
        assert!(filter.remove(&key(1)));
        assert!(!filter.remove(&key(1)));
        assert_eq!(filter.len(), 0);
    }

    #[test]
    fn growth_preserves_every_key_through_kick_storms() {
        // From 32 slots to >64k keys: thousands of displacements and a
        // dozen doublings, with zero false negatives at every stage.
        let mut filter = FrontFilter::new();
        for i in 0..70_000 {
            filter.insert(&key(i));
        }
        assert_eq!(filter.len(), 70_000);
        let stats = filter.stats();
        assert!(stats.grows >= 10, "expected many doublings, got {stats:?}");
        for i in 0..70_000 {
            assert!(filter.may_contain(&key(i)), "false negative for key {i}");
        }
    }

    #[test]
    fn false_positive_rate_at_full_occupancy_is_within_budget() {
        // Fill to just under the 15/16 grow threshold, then probe a
        // large family of never-inserted keys. Expected FP probability
        // is ≤ 8 occupied lanes × 2⁻¹⁶ ≈ 1.2e-4; the ISSUE budget is
        // 2⁻¹² ≈ 2.4e-4, about 2× headroom.
        let mut filter = FrontFilter::new();
        let mut i = 0u32;
        while (filter.len() + 1) * OCCUPANCY_DEN <= filter.capacity() * OCCUPANCY_NUM
            || filter.len() < 30_000
        {
            filter.insert(&key(i));
            i += 1;
        }
        let occupancy = filter.len() as f64 / filter.capacity() as f64;
        assert!(occupancy >= 0.9, "not at high occupancy: {occupancy}");
        let probes = 200_000u32;
        let fps = (0..probes)
            .filter(|&j| filter.may_contain(&key(1_000_000 + j)))
            .count();
        let bound = (f64::from(probes) * 2f64.powi(-12)).ceil() as usize;
        assert!(
            fps <= bound,
            "fp rate too high: {fps}/{probes} (bound {bound}) at occupancy {occupancy:.3}"
        );
    }

    #[test]
    fn front_wrapped_tiers_satisfy_the_demux_contract() {
        check_contract(Box::new(FrontDemux::new(SequentDemux::new(
            Multiplicative,
            19,
        ))));
        check_contract(Box::new(FrontDemux::new(CuckooDemux::new())));
    }

    #[test]
    fn rejects_cost_zero_and_are_counted() {
        let recorder = Recorder::new();
        let mut demux =
            FrontDemux::new(SequentDemux::new(Multiplicative, 19)).with_recorder(recorder.clone());
        let mut arena = PcbArena::new();
        for i in 0..100 {
            let k = key(i);
            let id = arena.insert(Pcb::new(k));
            demux.insert(k, id);
        }
        let mut rejects = 0;
        for i in 0..10_000u32 {
            let r = demux.lookup(&key(500_000 + i), PacketKind::Data);
            assert_eq!(r.pcb, None);
            if r.examined == 0 {
                rejects += 1;
            }
        }
        let front = demux.front_stats();
        assert_eq!(front.rejects, rejects);
        assert_eq!(front.rejects + front.false_positives, 10_000);
        assert!(
            front.rejects >= 9_900,
            "filter rejected only {} of 10k misses",
            front.rejects
        );
        let snap = recorder.snapshot();
        assert_eq!(snap.counter(CounterId::FrontRejects), front.rejects);
        assert_eq!(
            snap.counter(CounterId::FrontFalsePositives),
            front.false_positives
        );
        assert!(!snap.histogram(HistogramId::FrontOccupancy).is_empty());
        // The wrapper's own stats see every lookup, rejected or not.
        assert_eq!(demux.stats().lookups, 10_000);
        assert_eq!(demux.stats().not_found, 10_000);
    }

    #[test]
    fn remove_keeps_filter_and_backing_tier_in_sync() {
        let mut demux = FrontDemux::new(SequentDemux::new(Multiplicative, 19));
        let mut arena = PcbArena::new();
        let ids: Vec<_> = (0..50)
            .map(|i| {
                let k = key(i);
                let id = arena.insert(Pcb::new(k));
                demux.insert(k, id);
                id
            })
            .collect();
        for i in (0..50).step_by(2) {
            assert_eq!(demux.remove(&key(i)), Some(ids[i as usize]));
        }
        assert_eq!(demux.front_stats().filter.len, 25);
        assert_eq!(demux.len(), 25);
        for i in 0..50 {
            let r = demux.lookup(&key(i), PacketKind::Data);
            if i % 2 == 0 {
                assert_eq!(r.pcb, None);
            } else {
                assert_eq!(r.pcb, Some(ids[i as usize]), "false negative for key {i}");
            }
        }
    }

    #[test]
    fn preloaded_constructor_matches_incremental_build() {
        let keys: Vec<_> = (0..500).map(key).collect();
        let mut arena = PcbArena::new();
        let mut inner = SequentDemux::new(Multiplicative, 19);
        let mut incremental = FrontDemux::new(SequentDemux::new(Multiplicative, 19));
        for k in &keys {
            let id = arena.insert(Pcb::new(*k));
            inner.insert(*k, id);
            incremental.insert(*k, id);
        }
        let mut preloaded = FrontDemux::with_preloaded(inner, &keys);
        for i in 0..1_000 {
            let k = key(i);
            assert_eq!(
                preloaded.lookup(&k, PacketKind::Data).pcb,
                incremental.lookup(&k, PacketKind::Data).pcb
            );
        }
        assert_eq!(preloaded.front_stats().filter.len, 500);
    }
}
