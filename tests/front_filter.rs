//! Front-filter correctness properties, across every filter-wrapped tier.
//!
//! The fingerprint front filter's one non-negotiable invariant is **zero
//! false negatives**: because it maintains exact membership (the cold
//! key lane) in lockstep with the backing demultiplexer, a reject is a
//! *proof* of absence, never a guess. These properties drive seeded
//! churn — insert-heavy bursts that force kick walks and filter growth,
//! removals that must clear exactly one lane, and probes of keys that
//! were never (or no longer) present — against a `BTreeMap` oracle for
//! both filter-wrapped tiers, then pin the false-positive budget at
//! the 15/16 occupancy watermark and the batch≡sequential equivalence
//! through the filter's prefetch-then-forward batch path.
//!
//! The seed sweep is driven by `TCPDEMUX_FRONT_SEEDS` (default 4;
//! `scripts/verify.sh` stage 12 runs a deeper sweep).

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use tcpdemux::demux::{CuckooDemux, Demux, FrontDemux, PacketKind, SequentDemux};
use tcpdemux::hash::Multiplicative;
use tcpdemux::pcb::{ConnectionKey, Pcb, PcbArena, PcbId};
use tcpdemux_testprop::{check_cases, TestRng};

/// Live-key population; probes draw from a 2x larger space so roughly
/// half of all lookups exercise the reject path.
const KEYSPACE: u32 = 700;
const PROBESPACE: u32 = 1_400;
const OPS: usize = 3_000;

fn key(n: u32) -> ConnectionKey {
    ConnectionKey::new(
        Ipv4Addr::new(10, 0, 0, 1),
        1521,
        Ipv4Addr::from(0x0a03_0000 + n),
        (40_000 + (n % 20_000)) as u16,
    )
}

fn seed_count() -> u32 {
    std::env::var("TCPDEMUX_FRONT_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

enum Op {
    Insert(u32),
    Remove(u32),
    Lookup(u32),
}

/// Insert-heavy script probing well beyond the live population, so the
/// filter sees growth, kick storms, lane clears, and plenty of rejects.
fn script(rng: &mut TestRng) -> Vec<Op> {
    (0..OPS)
        .map(|_| match rng.below(8) {
            0..=3 => Op::Insert(rng.u32_in(0, KEYSPACE - 1)),
            4..=5 => Op::Remove(rng.u32_in(0, KEYSPACE - 1)),
            _ => Op::Lookup(rng.u32_in(0, PROBESPACE - 1)),
        })
        .collect()
}

#[test]
fn filter_wrapped_tiers_agree_with_oracle_under_churn() {
    check_cases("front_filter_oracle", seed_count(), |rng| {
        let ops = script(rng);
        let mut arena = PcbArena::new();
        let ids: Vec<PcbId> = (0..KEYSPACE)
            .map(|n| arena.insert(Pcb::new(key(n))))
            .collect();

        let mut sequential: Vec<Box<dyn Demux>> = vec![
            Box::new(FrontDemux::new(SequentDemux::new(Multiplicative, 19))),
            Box::new(FrontDemux::new(CuckooDemux::new())),
        ];
        let mut oracle: BTreeMap<u32, PcbId> = BTreeMap::new();

        for op in &ops {
            match *op {
                Op::Insert(n) => {
                    let id = ids[n as usize];
                    for demux in sequential.iter_mut() {
                        demux.insert(key(n), id);
                    }
                    oracle.insert(n, id);
                }
                Op::Remove(n) => {
                    let expected = oracle.remove(&n);
                    for demux in sequential.iter_mut() {
                        assert_eq!(
                            demux.remove(&key(n)),
                            expected,
                            "{} disagreed with oracle on remove({n})",
                            demux.name()
                        );
                    }
                }
                Op::Lookup(n) => {
                    let expected = oracle.get(&n).copied();
                    for demux in sequential.iter_mut() {
                        assert_eq!(
                            demux.lookup(&key(n), PacketKind::Data).pcb,
                            expected,
                            "{} disagreed with oracle on lookup({n})",
                            demux.name()
                        );
                    }
                }
            }
        }

        // Exhaustive final sweep: every live key found, every dead or
        // never-inserted key rejected or missed — a single false
        // negative anywhere fails here even if churn never probed it.
        for n in 0..PROBESPACE {
            let expected = oracle.get(&n).copied();
            for demux in sequential.iter_mut() {
                assert_eq!(
                    demux.lookup(&key(n), PacketKind::Data).pcb,
                    expected,
                    "{} final sweep key {n}",
                    demux.name()
                );
            }
        }
        for demux in &sequential {
            assert_eq!(demux.len(), oracle.len(), "{}", demux.name());
        }
    });
}

#[test]
fn false_positive_rate_within_budget_at_high_occupancy() {
    // Fill the wrapped tier right up to the 15/16 growth watermark,
    // then probe far more absent keys than the filter has slots. The
    // spec'd budget is an FP *rate* of at most 2^-12; the expected rate
    // is ~8 candidate lanes / 2^16 fingerprints ≈ 2^-13, so the budget
    // has 2x headroom without being loose enough to hide a broken lane
    // comparison (which would reject nothing and fail instantly).
    check_cases("front_filter_fp_budget", seed_count(), |rng| {
        let base = rng.u32_in(0, 1 << 20);
        let mut demux = FrontDemux::new(CuckooDemux::new());
        let mut arena = PcbArena::new();
        let mut n = 0u32;
        // Grow to a real population first (30k keys → 32k-slot filter),
        // so the budget is measured on thousands of occupied buckets,
        // not the 32-slot seed table's first watermark.
        while n < 30_000 {
            let k = key(base.wrapping_add(n));
            demux.insert(k, arena.insert(Pcb::new(k)));
            n += 1;
        }
        loop {
            let stats = demux.front_stats().filter;
            if (stats.len + 1) * 16 > stats.capacity * 15 {
                break; // next insert would cross the watermark
            }
            let k = key(base.wrapping_add(n));
            demux.insert(k, arena.insert(Pcb::new(k)));
            n += 1;
        }
        let occupancy = {
            let s = demux.front_stats().filter;
            s.len as f64 / s.capacity as f64
        };
        assert!(occupancy > 0.9, "not near the watermark: {occupancy:.3}");

        const PROBES: u64 = 200_000;
        for i in 0..PROBES {
            // Disjoint from every inserted key (different subnet).
            let absent = ConnectionKey::new(
                Ipv4Addr::new(10, 0, 0, 1),
                1521,
                Ipv4Addr::from(0x0a7f_0000_u32.wrapping_add(i as u32)),
                40_000,
            );
            assert!(demux.lookup(&absent, PacketKind::Data).pcb.is_none());
        }
        let fps = demux.front_stats().false_positives;
        let budget = PROBES >> 12; // rate ≤ 2^-12
        assert!(
            fps <= budget.max(8),
            "false positives {fps} exceed budget {budget} at occupancy {occupancy:.3}"
        );
    });
}

#[test]
fn batch_equals_sequential_through_the_filter_under_churn() {
    // Twin instances per wrapped tier: one probed one key at a time,
    // one through the prefetching batch path (which filters first and
    // forwards only survivors to the backing tier). Probes include
    // absent keys, so batches mix rejects with hits in one call.
    fn drive<D: Demux>(rng: &mut TestRng, make: impl Fn() -> D) {
        let (mut seq, mut bat) = (FrontDemux::new(make()), FrontDemux::new(make()));
        let mut arena = PcbArena::new();
        let mut out = Vec::new();
        for _ in 0..40 {
            for _ in 0..rng.u32_in(1, 60) {
                let n = rng.u32_in(0, KEYSPACE - 1);
                if rng.chance(0.7) {
                    let id = arena.insert(Pcb::new(key(n)));
                    seq.insert(key(n), id);
                    bat.insert(key(n), id);
                } else {
                    assert_eq!(seq.remove(&key(n)), bat.remove(&key(n)));
                }
            }
            let batch: Vec<(ConnectionKey, PacketKind)> = (0..rng.u32_in(1, 64))
                .map(|_| (key(rng.u32_in(0, PROBESPACE - 1)), PacketKind::Data))
                .collect();
            bat.lookup_batch(&batch, &mut out);
            assert_eq!(out.len(), batch.len());
            for (j, (k, kind)) in batch.iter().enumerate() {
                assert_eq!(out[j], seq.lookup(k, *kind), "batch slot {j}");
            }
        }
        assert_eq!(seq.stats(), bat.stats());
        assert_eq!(seq.front_stats().rejects, bat.front_stats().rejects);
        assert_eq!(
            seq.front_stats().false_positives,
            bat.front_stats().false_positives
        );
        assert_eq!(seq.len(), bat.len());
    }
    check_cases("front_filter_batch_twin", seed_count(), |rng| {
        drive(rng, || SequentDemux::new(Multiplicative, 19));
        drive(rng, CuckooDemux::new);
    });
}
