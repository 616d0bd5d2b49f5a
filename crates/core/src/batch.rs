//! Shared machinery for batched lookups over hash chains.
//!
//! The batched receive path hands the demultiplexer a whole burst of
//! arriving keys at once ([`crate::Demux::lookup_batch`]). For the hashed
//! structures the win comes from grouping the batch's keys by chain before
//! scanning: each chain's headers are pulled into cache once and every key
//! destined for that chain is resolved against the same walk, instead of
//! re-scanning from the head per packet. Grouping also tells us every
//! chain head the batch will touch *before* any walk starts, which is
//! what makes the prefetch pass in the demultiplexers possible.
//!
//! Correctness requirement (pinned by the batch≡sequential property test):
//! the results, the per-lookup `examined` counts, and the accumulated
//! [`LookupStats`] must be *identical* to looking each key up sequentially
//! in batch order. That holds because a lookup-only batch never reorders a
//! Sequent chain — positions are stable — and chains are independent: a
//! key's outcome depends only on earlier keys in the *same* chain, whose
//! relative order the stable grouping preserves.

use crate::list::{key_tag, PcbList, NIL};
use crate::stats::LookupStats;
use crate::{LookupResult, PacketKind};
use tcpdemux_pcb::{ConnectionKey, PcbId};

/// Reusable scratch space for grouping a batch by chain, owned by the
/// hashed demultiplexers so steady-state batches allocate nothing once
/// the buffers have grown to the working-set size.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    /// `(bucket, key index)` pairs, grouped by bucket.
    pub order: Vec<(u32, u32)>,
    /// Per-key bucket indices (counting-sort pass 1).
    buckets: Vec<u32>,
    /// Per-bucket histogram / running offsets (counting-sort pass 2).
    counts: Vec<u32>,
    /// One in-flight walk per chain the batch touches.
    walks: Vec<WalkState>,
    /// Distinct keys awaiting a chain position, segmented per walk.
    pending: Vec<PendingKey>,
    /// Per key index, its 32-bit tag — filled by the grouping pass in
    /// one tight auto-vectorizable sweep so the collect phase never
    /// recomputes a hash.
    tags: Vec<u32>,
    /// Per key index, the `pending` slot its occurrence deduped into
    /// (`u32::MAX` for occurrences peeled by the cache prefix), so the
    /// replay never recomputes a tag or rescans a segment.
    pend_of: Vec<u32>,
}

/// One chain's share of a grouped batch.
#[derive(Debug)]
struct WalkState {
    /// Chain/bucket index.
    bucket: u32,
    /// This walk's segment of `BatchScratch::pending`: `[start, start+len)`.
    start: u32,
    len: u32,
    /// This chain's run of `BatchScratch::order`: `[run_start, run_end)`.
    run_start: u32,
    run_end: u32,
}

/// A distinct key some walk must locate, with its resolution.
#[derive(Debug)]
struct PendingKey {
    tag: u32,
    key: ConnectionKey,
    /// `(id, 1-based chain position)` once the walk passes the key;
    /// still `None` after chain exhaustion means a table miss.
    found: Option<(PcbId, u32)>,
}

/// How many pending tags a walk keeps inline for its per-step filter.
const INLINE_TAGS: usize = 4;

/// Mirror a pending segment's unresolved tags into a fixed-size filter.
/// Unused slots repeat a real tag, so a spurious match only costs a
/// no-op arena scan, never a missed match.
fn seg_tags(seg: &[PendingKey]) -> [u32; INLINE_TAGS] {
    debug_assert!(seg.len() <= INLINE_TAGS);
    let mut tags = [0u32; INLINE_TAGS];
    let mut n = 0;
    for p in seg {
        if p.found.is_none() {
            tags[n] = p.tag;
            n += 1;
        }
    }
    let pad = tags[n.saturating_sub(1).min(INLINE_TAGS - 1)];
    for t in &mut tags[n..] {
        *t = pad;
    }
    tags
}

/// Per sub-walk, how many `(slot, position)` hit records fit before the
/// sub-walk is declared ambiguous and re-walked exactly. True positives
/// are bounded by [`INLINE_TAGS`]; the slack absorbs harmless tag
/// collisions without forcing the fallback.
const HIT_CAP: usize = 2 * (INLINE_TAGS + 2);

/// Confirm a retired sub-walk's recorded tag hits against its pending
/// segment, filling in `(id, 1-based position)` for every real match.
///
/// The walk itself never touches the pending arena — it only appends
/// `(slot, position)` pairs to `hits` and decrements its unresolved
/// count on faith. That faith is audited here: if any recorded hit
/// fails to confirm (a 32-bit tag collision with a key outside the
/// segment), or the buffer overflowed, the sub-walk's conclusions are
/// untrustworthy — a spurious decrement may have retired the walk
/// before a real key's position — so the segment is reset and re-walked
/// serially with eager full-key confirmation. That path is exact and
/// vanishingly rare; the equivalence suite pins both paths.
#[cold]
fn confirm_sub(
    chain: &PcbList,
    pending: &mut [PendingKey],
    seg_start: u32,
    seg_len: u32,
    hits: &[u32; HIT_CAP],
    hit_n: usize,
) {
    let seg = seg_start as usize..(seg_start + seg_len) as usize;
    let mut ok = hit_n <= HIT_CAP;
    for pair in hits[..hit_n.min(HIT_CAP)].chunks_exact(2) {
        let (slot, steps) = (pair[0], pair[1]);
        let stag = (chain.hot_word(slot) >> 32) as u32;
        let mut matched = false;
        for p in &mut pending[seg.clone()] {
            if p.found.is_none() && p.tag == stag && p.key == *chain.key_at(slot) {
                p.found = Some((chain.id_at(slot), steps));
                matched = true;
            }
        }
        ok &= matched;
    }
    if !ok {
        // Exact fallback: wipe the segment and walk the chain serially,
        // confirming full keys at every tag match.
        for p in &mut pending[seg.clone()] {
            p.found = None;
        }
        let mut unresolved = seg_len;
        let mut cursor = chain.head_slot();
        let mut steps = 0u32;
        while cursor != NIL && unresolved > 0 {
            let word = chain.hot_word(cursor);
            let stag = (word >> 32) as u32;
            steps += 1;
            for p in &mut pending[seg.clone()] {
                if p.found.is_none() && p.tag == stag && p.key == *chain.key_at(cursor) {
                    p.found = Some((chain.id_at(cursor), steps));
                    unresolved -= 1;
                }
            }
            cursor = word as u32;
        }
    }
}

/// Pull the next live sub-walk off the iterator: `(hot lane, bucket,
/// seg_start, seg_len, head cursor, unresolved, tag filter)`. Sub-walks
/// whose chain is empty are skipped — their segment stays unresolved,
/// which phase 3 reads as a miss with zero entries examined.
#[allow(clippy::type_complexity)]
fn next_lane<'a>(
    subs: &mut impl Iterator<Item = (u32, u32, u32)>,
    chains: &'a [PcbList],
    pending: &[PendingKey],
) -> Option<(&'a [u64], u32, u32, u32, u32, u32, [u32; INLINE_TAGS])> {
    for (b, ss, sl) in subs.by_ref() {
        let chain = &chains[b as usize];
        let cur = chain.head_slot();
        if cur == NIL {
            continue;
        }
        let (hot, _, _) = chain.lanes();
        let tags = seg_tags(&pending[ss as usize..(ss + sl) as usize]);
        return Some((hot, b, ss, sl, cur, sl, tags));
    }
    None
}

/// Narrow a chain/bucket index to the `u32` used in grouping pairs.
///
/// Every demultiplexer that feeds the batch path asserts at construction
/// that its table has at most `u32::MAX` chains, so truncation cannot
/// happen in practice; the `debug_assert!` turns a future violation into
/// a loud failure instead of silently merging the groups of buckets that
/// differ only above bit 31.
#[inline]
pub(crate) fn bucket_index(bucket: usize) -> u32 {
    debug_assert!(
        u32::try_from(bucket).is_ok(),
        "bucket index {bucket} exceeds u32::MAX: grouping pairs would truncate"
    );
    bucket as u32
}

/// Fill `order` with `(bucket, index)` for every key and stably sort by
/// bucket, preserving batch order within each chain's group.
pub(crate) fn group_by_bucket(
    order: &mut Vec<(u32, u32)>,
    keys: &[(ConnectionKey, PacketKind)],
    mut bucket: impl FnMut(&ConnectionKey) -> usize,
) {
    order.clear();
    order.reserve(keys.len());
    order.extend(
        keys.iter()
            .enumerate()
            .map(|(i, (key, _))| (bucket_index(bucket(key)), i as u32)),
    );
    // Sorting the (bucket, index) pair makes the unstable sort behave
    // stably (indices are unique) without the stable sort's scratch
    // allocation — this runs per batch on the hot receive path.
    order.sort_unstable();
}

/// Like [`group_by_bucket`], but via a two-pass counting sort when the
/// table is small enough: hash every key in one tight pass (the hashes
/// auto-vectorize with no sort-comparison control flow in between), then
/// histogram + exclusive prefix sum + stable scatter in O(batch + chains).
/// Falls back to the comparison sort when `chains` is so much larger than
/// the batch that zeroing the histogram would dominate. Output order is
/// identical either way.
pub(crate) fn group_by_bucket_counted(
    scratch: &mut BatchScratch,
    keys: &[(ConnectionKey, PacketKind)],
    chains: usize,
    mut bucket: impl FnMut(&ConnectionKey) -> usize,
) {
    scratch.tags.clear();
    scratch
        .tags
        .extend(keys.iter().map(|(key, _)| key_tag(key)));
    if let [(key, _)] = keys {
        // Degenerate single-key batch (a per-packet caller going through
        // the batch API): one hash, no histogram.
        scratch.order.clear();
        scratch.order.push((bucket_index(bucket(key)), 0));
        return;
    }
    if chains > 8 * keys.len() + 64 {
        group_by_bucket(&mut scratch.order, keys, bucket);
        return;
    }
    // Pass 1: bucket every key. A tight loop over the key array with no
    // branches on the result, so the three-word hash can pipeline.
    scratch.buckets.clear();
    scratch
        .buckets
        .extend(keys.iter().map(|(key, _)| bucket_index(bucket(key))));
    // Pass 2: histogram, then exclusive prefix sum turns counts into
    // each bucket's first output position.
    scratch.counts.clear();
    scratch.counts.resize(chains, 0);
    for &b in &scratch.buckets {
        scratch.counts[b as usize] += 1;
    }
    let mut sum = 0u32;
    for c in scratch.counts.iter_mut() {
        let n = *c;
        *c = sum;
        sum += n;
    }
    // Pass 3: scatter in batch order — within a bucket, earlier keys land
    // earlier, which is exactly the stability the equivalence proof needs.
    scratch.order.clear();
    scratch.order.resize(keys.len(), (0, 0));
    for (i, &b) in scratch.buckets.iter().enumerate() {
        let at = scratch.counts[b as usize];
        scratch.counts[b as usize] += 1;
        scratch.order[at as usize] = (b, i as u32);
    }
}

/// Resolve one chain's group of keys against a single walk of the chain.
///
/// Replays the exact sequential semantics of the Sequent lookup: a cache
/// probe costs 1 (hit ends the lookup), a scan's cost is the key's 1-based
/// chain position (or the full chain length on a miss) plus the probe, and
/// every successful scan refreshes the cache. The chain itself is walked at most once per group; keys whose position was
/// already passed are answered from the `scanned` prefix.
///
/// The walk reads only the chain's hot lane — one packed
/// `(tag << 32) | next` word per step, prefetching one node ahead — and
/// `scanned` remembers `(tag, slot)` pairs, so replaying the prefix for
/// repeated keys compares 4-byte tags instead of 96-bit keys. A tag
/// comparison counts as examining that position, which keeps `examined`
/// identical to the sequential walk.
///
/// `group` yields indices into `keys`/`out` in batch order.
pub(crate) fn chain_group_lookup(
    chain: &PcbList,
    cache: &mut Option<(ConnectionKey, PcbId)>,
    scanned: &mut Vec<(u32, u32)>,
    group: impl Iterator<Item = usize>,
    keys: &[(ConnectionKey, PacketKind)],
    out: &mut [LookupResult],
    stats: &mut LookupStats,
) {
    let mut cursor = chain.head_slot();
    scanned.clear();
    for idx in group {
        let key = keys[idx].0;
        if let Some((ck, id)) = *cache {
            if ck == key {
                stats.record(1, true, true);
                out[idx] = LookupResult {
                    pcb: Some(id),
                    examined: 1,
                    cache_hit: true,
                };
                continue;
            }
        }
        let probe = u32::from(cache.is_some());
        let tag = key_tag(&key);
        let mut found: Option<(PcbId, u32)> = None;
        for (pos, &(stag, slot)) in scanned.iter().enumerate() {
            if stag == tag && *chain.key_at(slot) == key {
                found = Some((chain.id_at(slot), pos as u32 + 1));
                break;
            }
        }
        if found.is_none() {
            while cursor != NIL {
                let word = chain.hot_word(cursor);
                let next = word as u32;
                chain.prefetch_slot(next);
                let slot = cursor;
                cursor = next;
                let stag = (word >> 32) as u32;
                scanned.push((stag, slot));
                if stag == tag && *chain.key_at(slot) == key {
                    found = Some((chain.id_at(slot), scanned.len() as u32));
                    break;
                }
            }
        }
        match found {
            Some((id, pos)) => {
                let examined = probe + pos;
                *cache = Some((key, id));
                stats.record(examined, true, false);
                out[idx] = LookupResult {
                    pcb: Some(id),
                    examined,
                    cache_hit: false,
                };
            }
            None => {
                let examined = probe + scanned.len() as u32;
                stats.record(examined, false, false);
                out[idx] = LookupResult::miss(examined);
            }
        }
    }
}

/// Resolve a whole grouped batch by walking every touched chain
/// *simultaneously*, one step per chain per round.
///
/// [`chain_group_lookup`] walks one chain to completion before starting
/// the next, so every step's load depends on the previous step's `next`
/// pointer — the walk runs at L1 *latency* (4–5 cycles per entry), not
/// L1 throughput. Interleaving instead advances each chain's cursor once
/// per round: the ~`H` loads issued in one round are independent, so the
/// out-of-order window overlaps their latencies and the whole batch's
/// chain work completes in roughly the time of the single longest walk.
/// This is the memory-level parallelism a per-packet loop structurally
/// cannot have, and it is where the batched path's speedup comes from.
///
/// Three phases, all allocation-free at steady state:
///
/// 1. **Collect** — per chain run (in batch order), skip the leading
///    occurrences answered by the chain's one-entry cache (a packet
///    train's tail; the cache is left unchanged by hits, so these are
///    guaranteed), then dedup the remaining keys into a `pending`
///    segment. Duplicate keys — trains, or repeated misses — resolve
///    with one walk instead of one rescan each.
/// 2. **Walk** — round-robin over all chains with unresolved keys; each
///    step reads one packed `(tag << 32) | next` hot word, prefetches
///    the next slot, and tag-compares against the segment (full key
///    compared only on tag hit). A walk retires when its segment is
///    resolved or the chain ends.
/// 3. **Replay** — per run, in batch order, replay the exact sequential
///    cache semantics using the resolved positions: a cache hit costs 1,
///    a located key costs probe + position (and refreshes the cache when
///    enabled), a miss costs probe + chain length — `PcbList::len`, not
///    a rescan, since a sequential miss examines every live entry.
///
/// The equivalence suite pins this path to the sequential walk result-
/// for-result and stat-for-stat.
pub(crate) fn interleaved_batch_lookup(
    chains: &[PcbList],
    caches: &mut [Option<(ConnectionKey, PcbId)>],
    cache_enabled: bool,
    scratch: &mut BatchScratch,
    keys: &[(ConnectionKey, PacketKind)],
    out: &mut [LookupResult],
    stats: &mut LookupStats,
) {
    let BatchScratch {
        order,
        walks,
        pending,
        tags: key_tags,
        pend_of,
        ..
    } = scratch;

    // Phase 1: per chain run, peel the leading cache-hit prefix and
    // dedup the rest into this walk's pending segment.
    walks.clear();
    pending.clear();
    pend_of.clear();
    pend_of.resize(keys.len(), u32::MAX);
    let mut i = 0;
    while i < order.len() {
        let b = order[i].0;
        let mut j = i;
        while j < order.len() && order[j].0 == b {
            j += 1;
        }
        let mut lead = i;
        if let Some((ck, _)) = caches[b as usize] {
            while lead < j && keys[order[lead].1 as usize].0 == ck {
                lead += 1;
            }
        }
        let start = pending.len();
        for &(_, idx) in &order[lead..j] {
            let key = keys[idx as usize].0;
            let tag = key_tags[idx as usize];
            let at = match pending[start..]
                .iter()
                .position(|p| p.tag == tag && p.key == key)
            {
                Some(off) => start + off,
                None => {
                    pending.push(PendingKey {
                        tag,
                        key,
                        found: None,
                    });
                    pending.len() - 1
                }
            };
            pend_of[idx as usize] = at as u32;
        }
        walks.push(WalkState {
            bucket: b,
            start: start as u32,
            len: (pending.len() - start) as u32,
            run_start: i as u32,
            run_end: j as u32,
        });
        i = j;
    }

    // Phase 2: walk the chains, two in lock-step so their dependent
    // `hot[cursor]` loads overlap — a per-packet loop structurally
    // cannot do this, because it does not know the next key's chain
    // until the current lookup returns. Each finished lane hands its
    // slot to the next sub-walk, so two walks are in flight until the
    // final tail. Segments wider than the inline filter are split into
    // independent sub-walks of at most `INLINE_TAGS` keys over the same
    // chain: the filter stays complete (no per-step arena scans) and
    // dense batches yield *more* overlap partners. All lane state is
    // scalar locals — a handful of registers per lane — because spilled
    // lane structs were measured to cost ~25% of the whole walk.
    let mut subs = walks.iter().flat_map(|w| {
        (0..w.len).step_by(INLINE_TAGS).map(move |off| {
            (
                w.bucket,
                w.start + off,
                (w.len - off).min(INLINE_TAGS as u32),
            )
        })
    });
    if let Some((mut hot_a, mut ba, mut ssa, mut sla, mut cura, mut lefta, mut tagsa)) =
        next_lane(&mut subs, chains, pending)
    {
        let mut stepsa = 0u32;
        let mut hits_a = [0u32; HIT_CAP];
        let mut hitn_a = 0usize;
        'pairs: loop {
            let Some((hot_b, bb, ssb, slb, mut curb, mut leftb, tagsb)) =
                next_lane(&mut subs, chains, pending)
            else {
                // No peer left to overlap with; drain the last lane in a
                // tight serial loop.
                while cura != NIL && lefta > 0 {
                    let w = hot_a[cura as usize];
                    let s = (w >> 32) as u32;
                    stepsa += 1;
                    if (s == tagsa[0]) | (s == tagsa[1]) | (s == tagsa[2]) | (s == tagsa[3]) {
                        if hitn_a < HIT_CAP {
                            hits_a[hitn_a] = cura;
                            hits_a[hitn_a + 1] = stepsa;
                        }
                        hitn_a += 2;
                        lefta = lefta.saturating_sub(1);
                    }
                    cura = w as u32;
                }
                confirm_sub(&chains[ba as usize], pending, ssa, sla, &hits_a, hitn_a);
                break 'pairs;
            };
            let mut stepsb = 0u32;
            let mut hits_b = [0u32; HIT_CAP];
            let mut hitn_b = 0usize;
            loop {
                // Issue both loads before either lane's bookkeeping: the
                // two dependent chains advance concurrently. The hit
                // branches only append to the lanes' record buffers —
                // no calls, so the lane state stays in registers.
                let wa = hot_a[cura as usize];
                let wb = hot_b[curb as usize];
                let sa = (wa >> 32) as u32;
                let sb = (wb >> 32) as u32;
                stepsa += 1;
                stepsb += 1;
                if (sa == tagsa[0]) | (sa == tagsa[1]) | (sa == tagsa[2]) | (sa == tagsa[3]) {
                    if hitn_a < HIT_CAP {
                        hits_a[hitn_a] = cura;
                        hits_a[hitn_a + 1] = stepsa;
                    }
                    hitn_a += 2;
                    lefta = lefta.saturating_sub(1);
                }
                if (sb == tagsb[0]) | (sb == tagsb[1]) | (sb == tagsb[2]) | (sb == tagsb[3]) {
                    if hitn_b < HIT_CAP {
                        hits_b[hitn_b] = curb;
                        hits_b[hitn_b + 1] = stepsb;
                    }
                    hitn_b += 2;
                    leftb = leftb.saturating_sub(1);
                }
                cura = wa as u32;
                curb = wb as u32;
                let a_done = cura == NIL || lefta == 0;
                let b_done = curb == NIL || leftb == 0;
                if a_done | b_done {
                    if a_done {
                        confirm_sub(&chains[ba as usize], pending, ssa, sla, &hits_a, hitn_a);
                    }
                    if b_done {
                        confirm_sub(&chains[bb as usize], pending, ssb, slb, &hits_b, hitn_b);
                    }
                    if a_done && !b_done {
                        hot_a = hot_b;
                        ba = bb;
                        ssa = ssb;
                        sla = slb;
                        cura = curb;
                        stepsa = stepsb;
                        lefta = leftb;
                        tagsa = tagsb;
                        hits_a = hits_b;
                        hitn_a = hitn_b;
                    } else if a_done && b_done {
                        match next_lane(&mut subs, chains, pending) {
                            Some((h, b2, ss2, sl2, cu2, l2, t2)) => {
                                hot_a = h;
                                ba = b2;
                                ssa = ss2;
                                sla = sl2;
                                cura = cu2;
                                stepsa = 0;
                                lefta = l2;
                                tagsa = t2;
                                hits_a = [0; HIT_CAP];
                                hitn_a = 0;
                            }
                            None => break 'pairs,
                        }
                    }
                    break;
                }
            }
        }
    }

    // Phase 3: replay each run in batch order against the live cache.
    for w in walks.iter() {
        let b = w.bucket as usize;
        let chain = &chains[b];
        let chain_len = chain.len() as u32;
        let cache = &mut caches[b];
        for &(_, idx) in &order[w.run_start as usize..w.run_end as usize] {
            let idx = idx as usize;
            let key = keys[idx].0;
            if let Some((ck, id)) = *cache {
                if ck == key {
                    stats.record(1, true, true);
                    out[idx] = LookupResult {
                        pcb: Some(id),
                        examined: 1,
                        cache_hit: true,
                    };
                    continue;
                }
            }
            let probe = u32::from(cache.is_some());
            let slot = pend_of[idx];
            let found = if slot != u32::MAX {
                pending[slot as usize].found
            } else {
                // A peeled cache-prefix occurrence that missed the cache
                // after all — only possible if the cache moved mid-run,
                // which the peel's guarantee rules out. Resolve directly
                // rather than trust the invariant.
                let (found, scanned) = chain.find(&key);
                found.map(|id| (id, scanned))
            };
            match found {
                Some((id, pos)) => {
                    let examined = probe + pos;
                    if cache_enabled {
                        *cache = Some((key, id));
                    }
                    stats.record(examined, true, false);
                    out[idx] = LookupResult {
                        pcb: Some(id),
                        examined,
                        cache_hit: false,
                    };
                }
                None => {
                    let examined = probe + chain_len;
                    stats.record(examined, false, false);
                    out[idx] = LookupResult::miss(examined);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::key;

    #[test]
    fn bucket_index_round_trips_in_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(19), 19);
        assert_eq!(bucket_index(u32::MAX as usize), u32::MAX);
    }

    // `debug_assert!` only fires in debug builds, and only a 64-bit
    // usize can even represent the overflowing value.
    #[cfg(debug_assertions)]
    #[cfg(target_pointer_width = "64")]
    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn bucket_index_rejects_truncation() {
        let _ = bucket_index(u32::MAX as usize + 1);
    }

    fn batch(n: u32) -> Vec<(ConnectionKey, PacketKind)> {
        (0..n).map(|i| (key(i * 7 + 3), PacketKind::Data)).collect()
    }

    #[test]
    fn counted_grouping_matches_sorted_grouping() {
        // Small table: the counting-sort path.
        let keys = batch(100);
        let chains = 19usize;
        let bucket = |k: &ConnectionKey| (k.as_words()[2] as usize) % chains;
        let mut scratch = BatchScratch::default();
        group_by_bucket_counted(&mut scratch, &keys, chains, bucket);
        let mut sorted = Vec::new();
        group_by_bucket(&mut sorted, &keys, bucket);
        assert_eq!(scratch.order, sorted);

        // Huge sparse table relative to the batch: the fallback path.
        let keys = batch(4);
        let chains = 1 << 16;
        let bucket = |k: &ConnectionKey| (k.as_words()[2] as usize) % chains;
        group_by_bucket_counted(&mut scratch, &keys, chains, bucket);
        group_by_bucket(&mut sorted, &keys, bucket);
        assert_eq!(scratch.order, sorted);

        // Empty batch: both paths produce an empty grouping.
        group_by_bucket_counted(&mut scratch, &[], 19, bucket);
        assert!(scratch.order.is_empty());
    }
}
