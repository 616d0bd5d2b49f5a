//! Seeded stress test for every concurrent demux tier: the
//! lock-per-chain `ShardedDemux` and the lock-free-read
//! `ConcurrentCuckooDemux`.
//!
//! The test fabricates `PcbId`s whose packed bits carry their identity:
//! the low word is the *global key index* (unique per connection key) and
//! the high word is a per-key *generation* that each insert bumps. That
//! makes every safety violation directly observable from a lookup result
//! alone:
//!
//! - a lookup returning an id whose index ≠ the looked-up key's index is
//!   a cross-key corruption (e.g. a torn read of a moving entry);
//! - an id with generation `g` returned after `floor[k]` advanced past
//!   `g` is a **use-after-retire** — the entry was removed or replaced
//!   and the writer had returned before the lookup began;
//! - a generation above `ceiling[k]` was never inserted at all.
//!
//! `floor[k]` is advanced (fetch_max) only *after* `remove` returns, and
//! `ceiling[k]` *before* `insert` publishes, so the bounds a reader loads
//! before/after its lookup bracket every legally-visible generation.
//!
//! The seed sweep is driven by `TCPDEMUX_STRESS_SEEDS` (default 4;
//! `scripts/verify.sh` runs 16). The cuckoo table starts at 8 buckets
//! (32 slots) and each writer keeps about two thirds of its 64 keys live,
//! so even one writer alone forces growth while readers probe, pushing
//! superseded generations through the epoch runtime. After the churn
//! that runtime must reach full quiescence: every retired generation
//! reclaimed and nothing left deferred.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use tcpdemux::demux::concurrent::{concurrent_suite, ConcurrentDemux, ShardedDemux};
use tcpdemux::demux::{ConcurrentCuckooDemux, PacketKind};
use tcpdemux::hash::Multiplicative;
use tcpdemux::pcb::{ConnectionKey, PcbId};
use tcpdemux_testprop::TestRng;

const WRITERS: usize = 2;
const READERS: usize = 2;
const KEYS_PER_WRITER: usize = 64;
const OPS_PER_WRITER: usize = 800;
const CHAINS: usize = 7; // few chains → long chains → real lock contention

fn key_for(global: usize) -> ConnectionKey {
    ConnectionKey::new(
        std::net::Ipv4Addr::new(10, 0, 0, 1),
        1521,
        std::net::Ipv4Addr::from(0x0a02_0000 + global as u32),
        (41_000 + global) as u16,
    )
}

fn fabricate(global: usize, generation: u64) -> PcbId {
    PcbId::from_bits((generation << 32) | global as u64)
}

fn generation_of(id: PcbId) -> u64 {
    id.to_bits() >> 32
}

fn seed_count() -> u64 {
    std::env::var("TCPDEMUX_STRESS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

struct KeyTracker {
    /// `g + 1` of the largest generation whose removal has completed.
    floor: AtomicU64,
    /// `g + 1` of the largest generation whose insert has begun.
    ceiling: AtomicU64,
}

fn check_found(global: usize, id: PcbId, floor_before: u64, ceiling_after: u64, context: &str) {
    assert_eq!(
        id.index(),
        global,
        "{context}: lookup of key {global} returned another key's id {id}"
    );
    let g = generation_of(id) + 1;
    assert!(
        g > floor_before,
        "{context}: key {global} returned retired generation {} (floor {})",
        g - 1,
        floor_before
    );
    assert!(
        g <= ceiling_after,
        "{context}: key {global} returned uninserted generation {} (ceiling {})",
        g - 1,
        ceiling_after
    );
}

/// Churn `demux` from the writers while the readers check every result
/// against the generation bounds; the table ends empty.
fn churn(demux: &dyn ConcurrentDemux, seed: u64) {
    let total_keys = WRITERS * KEYS_PER_WRITER;
    let trackers: Vec<KeyTracker> = (0..total_keys)
        .map(|_| KeyTracker {
            floor: AtomicU64::new(0),
            ceiling: AtomicU64::new(0),
        })
        .collect();
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        let mut writer_handles = Vec::new();
        for w in 0..WRITERS {
            let trackers = &trackers;
            writer_handles.push(s.spawn(move || {
                let mut rng = TestRng::from_seed(seed ^ (w as u64).wrapping_mul(0x9e37_79b9));
                // Which generation each of our keys is on; `None` while
                // the key is absent from the table.
                let mut live: Vec<Option<u64>> = vec![None; KEYS_PER_WRITER];
                let mut next_gen: Vec<u64> = vec![0; KEYS_PER_WRITER];
                for _ in 0..OPS_PER_WRITER {
                    let local = rng.usize_in(0, KEYS_PER_WRITER);
                    let global = w * KEYS_PER_WRITER + local;
                    let k = key_for(global);
                    match live[local] {
                        None => {
                            let g = next_gen[local];
                            next_gen[local] += 1;
                            trackers[global].ceiling.fetch_max(g + 1, Ordering::SeqCst);
                            demux.insert(k, fabricate(global, g));
                            live[local] = Some(g);
                        }
                        Some(g) if rng.bool() => {
                            // Sole owner of this key: the remove must
                            // return exactly the generation we inserted.
                            let removed = demux.remove(&k);
                            assert_eq!(removed, Some(fabricate(global, g)), "writer {w}");
                            trackers[global].floor.fetch_max(g + 1, Ordering::SeqCst);
                            live[local] = None;
                        }
                        Some(g) => {
                            // Replace in place: same key, next generation.
                            let ng = next_gen[local];
                            next_gen[local] += 1;
                            trackers[global].ceiling.fetch_max(ng + 1, Ordering::SeqCst);
                            demux.insert(k, fabricate(global, ng));
                            // The old generation is now retired.
                            trackers[global].floor.fetch_max(g + 1, Ordering::SeqCst);
                            live[local] = Some(ng);
                        }
                    }
                }
                // Drain our keys so the table ends empty.
                for (local, entry) in live.iter().enumerate() {
                    if let Some(g) = *entry {
                        let global = w * KEYS_PER_WRITER + local;
                        let removed = demux.remove(&key_for(global));
                        assert_eq!(removed, Some(fabricate(global, g)), "writer {w} drain");
                        trackers[global].floor.fetch_max(g + 1, Ordering::SeqCst);
                    }
                }
            }));
        }
        for r in 0..READERS {
            let trackers = &trackers;
            let done = &done;
            s.spawn(move || {
                let mut rng = TestRng::from_seed(seed ^ 0xdead_beef ^ (r as u64) << 17);
                let mut batch = Vec::new();
                let mut floors = Vec::new();
                let mut out = Vec::new();
                let mut rounds = 0u32;
                while !done.load(Ordering::Relaxed) || rounds < 50 {
                    rounds += 1;
                    if rounds > 20_000 {
                        break; // safety valve; never hit in practice
                    }
                    if rng.bool() {
                        let global = rng.usize_in(0, total_keys);
                        let floor_before = trackers[global].floor.load(Ordering::SeqCst);
                        let result = demux.lookup(&key_for(global), PacketKind::Data);
                        let ceiling_after = trackers[global].ceiling.load(Ordering::SeqCst);
                        if let Some(id) = result.pcb {
                            check_found(global, id, floor_before, ceiling_after, "lookup");
                        }
                    } else {
                        batch.clear();
                        floors.clear();
                        for _ in 0..rng.usize_in(1, 24) {
                            let global = rng.usize_in(0, total_keys);
                            floors.push((global, trackers[global].floor.load(Ordering::SeqCst)));
                            batch.push((key_for(global), PacketKind::Data));
                        }
                        demux.lookup_batch(&batch, &mut out);
                        assert_eq!(out.len(), batch.len());
                        for (i, result) in out.iter().enumerate() {
                            let (global, floor_before) = floors[i];
                            let ceiling_after = trackers[global].ceiling.load(Ordering::SeqCst);
                            if let Some(id) = result.pcb {
                                check_found(
                                    global,
                                    id,
                                    floor_before,
                                    ceiling_after,
                                    "lookup_batch",
                                );
                            }
                        }
                    }
                }
            });
        }
        // Keep the readers running for the whole churn: only flag them
        // once every writer has actually finished.
        for h in writer_handles {
            h.join().expect("writer thread");
        }
        done.store(true, Ordering::Relaxed);
    });

    assert_eq!(
        demux.len(),
        0,
        "{}: writers drained all their keys",
        demux.name()
    );
    // A fully drained table answers nothing.
    for global in (0..total_keys).step_by(7) {
        assert_eq!(demux.lookup(&key_for(global), PacketKind::Data).pcb, None);
    }
}

#[test]
fn every_concurrent_tier_survives_churn_across_seeds() {
    let names: Vec<String> = concurrent_suite(CHAINS).iter().map(|d| d.name()).collect();
    assert_eq!(
        names,
        ["sharded-sequent(7)", "cuckoo-conc"],
        "every concurrent_suite tier needs a churn run below"
    );
    for seed in 0..seed_count() {
        let seed = 0xc0ffee ^ seed.wrapping_mul(0x0100_0000_01b3);
        churn(&ShardedDemux::new(Multiplicative, CHAINS), seed);

        let cuckoo = ConcurrentCuckooDemux::new();
        churn(&cuckoo, seed);
        assert!(
            cuckoo.generation() > 0,
            "the key population must force growth under concurrent readers"
        );
        // Quiescent teardown: with no reader pinned, each writer op
        // advances the epoch and drains, so a few no-op removes must
        // reclaim every retired generation.
        for _ in 0..8 {
            cuckoo.remove(&key_for(0));
        }
        let stats = cuckoo.reclamation_stats();
        assert!(stats.retired > 0, "growth retires generations: {stats:?}");
        assert_eq!(
            stats.retired, stats.reclaimed,
            "all retired generations eventually reclaimed: {stats:?}"
        );
        assert_eq!(stats.deferred, 0, "{stats:?}");
    }
}
