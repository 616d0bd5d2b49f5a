//! Batched lookups are observably identical to sequential lookups.
//!
//! For every algorithm in the (extended) suite, `Demux::lookup_batch`
//! must return — per key, in order — exactly the [`LookupResult`] that
//! calling `Demux::lookup` on each key would have returned, and leave the
//! accumulated [`LookupStats`] identical. The property drives twin
//! instances of every algorithm over randomized key streams cut at
//! random batch boundaries, with random table mutations (insert, remove,
//! note_send) applied to both twins between batches.

use std::net::Ipv4Addr;
use tcpdemux::demux::concurrent::concurrent_suite;
use tcpdemux::demux::{
    extended_suite, AdaptiveDemux, BsdDemux, CuckooDemux, Demux, DirectDemux, HashedMtfDemux,
    LookupResult, MtfDemux, PacketKind, SendRecvDemux, SequentDemux,
};
use tcpdemux::hash::{Multiplicative, XorFold};
use tcpdemux::pcb::{ConnectionKey, Pcb, PcbArena};
use tcpdemux_testprop::check_cases;

fn key(n: u8) -> ConnectionKey {
    ConnectionKey::new(
        Ipv4Addr::new(10, 0, 0, 1),
        1521,
        Ipv4Addr::new(10, 3, n >> 6, n),
        41_000 + u16::from(n & 0x3),
    )
}

/// Keys from a family disjoint from [`key`]'s (different remote subnet),
/// so a lookup of one is a guaranteed table miss.
fn miss_key(n: u8) -> ConnectionKey {
    ConnectionKey::new(
        Ipv4Addr::new(10, 0, 0, 1),
        1521,
        Ipv4Addr::new(172, 16, n >> 6, n),
        51_000 + u16::from(n & 0x3),
    )
}

#[derive(Debug, Clone)]
enum Mutation {
    Insert(u8),
    Remove(u8),
    NoteSend(u8),
}

#[test]
fn batch_lookup_matches_sequential_lookup() {
    check_cases("batch_lookup_matches_sequential_lookup", 48, |rng| {
        let mut arena = PcbArena::new();
        let mut seq_suite = extended_suite();
        let mut batch_suite = extended_suite();

        // Seed both twins with the same random connection population.
        let population: Vec<ConnectionKey> = (0..rng.u8_in(1, 80)).map(key).collect();
        let mut installed = Vec::new();
        for &ck in &population {
            if rng.chance(0.7) {
                let id = arena.insert(Pcb::new(ck));
                installed.push(ck);
                for entry in seq_suite.iter_mut().chain(batch_suite.iter_mut()) {
                    entry.demux.insert(ck, id);
                }
            }
        }

        // A batch of lookups (hits, misses, duplicates), then a few
        // mutations, repeated. Everything is generated once so both
        // twins see the exact same operation sequence.
        let rounds = rng.usize_in(1, 12);
        let mut script = Vec::new();
        for _ in 0..rounds {
            let batch: Vec<(ConnectionKey, PacketKind)> = rng.vec_of(0, 40, |rng| {
                let ck = *rng.choose(&population);
                let kind = if rng.bool() {
                    PacketKind::Ack
                } else {
                    PacketKind::Data
                };
                (ck, kind)
            });
            let mutations = rng.vec_of(0, 4, |rng| match rng.u8_in(0, 2) {
                0 => Mutation::Insert(rng.u8()),
                1 => Mutation::Remove(rng.u8()),
                _ => Mutation::NoteSend(rng.u8()),
            });
            script.push((batch, mutations));
        }

        for (entry_seq, entry_batch) in seq_suite.iter_mut().zip(batch_suite.iter_mut()) {
            assert_eq!(entry_seq.name, entry_batch.name);
            let mut installed = installed.clone();
            let mut out = Vec::new();
            for (batch, mutations) in &script {
                let sequential: Vec<LookupResult> = batch
                    .iter()
                    .map(|(ck, kind)| entry_seq.demux.lookup(ck, *kind))
                    .collect();
                entry_batch.demux.lookup_batch(batch, &mut out);
                assert_eq!(
                    sequential, out,
                    "batched results diverged for {}",
                    entry_seq.name
                );
                for m in mutations {
                    match *m {
                        Mutation::Insert(n) => {
                            let ck = key(n);
                            if !installed.contains(&ck) {
                                let id = arena.insert(Pcb::new(ck));
                                installed.push(ck);
                                entry_seq.demux.insert(ck, id);
                                entry_batch.demux.insert(ck, id);
                            }
                        }
                        Mutation::Remove(n) => {
                            let ck = key(n);
                            installed.retain(|&k| k != ck);
                            entry_seq.demux.remove(&ck);
                            entry_batch.demux.remove(&ck);
                        }
                        Mutation::NoteSend(n) => {
                            let ck = key(n);
                            entry_seq.demux.note_send(&ck);
                            entry_batch.demux.note_send(&ck);
                        }
                    }
                }
            }
            assert_eq!(
                entry_seq.demux.stats(),
                entry_batch.demux.stats(),
                "accumulated LookupStats diverged for {}",
                entry_seq.name
            );
        }
    });
}

/// Same property for the batch boundaries themselves: cutting one fixed
/// stream into batches of any size must not change any result. (The test
/// above varies streams; this one varies only the cut points, which is
/// where stale-prefix bookkeeping bugs in the single-walk overrides
/// would show up.)
#[test]
fn batch_boundaries_do_not_matter() {
    check_cases("batch_boundaries_do_not_matter", 32, |rng| {
        let mut arena = PcbArena::new();
        let population: Vec<ConnectionKey> = (0..rng.u8_in(2, 60)).map(key).collect();
        let stream: Vec<(ConnectionKey, PacketKind)> = rng.vec_of(1, 150, |rng| {
            let ck = *rng.choose(&population);
            let kind = if rng.bool() {
                PacketKind::Ack
            } else {
                PacketKind::Data
            };
            (ck, kind)
        });
        // Random cut points, shared by every algorithm.
        let cuts: Vec<usize> = {
            let mut cuts = Vec::new();
            let mut i = 0;
            while i < stream.len() {
                let step = rng.usize_in(1, 33).min(stream.len() - i);
                i += step;
                cuts.push(i);
            }
            cuts
        };

        let mut whole_suite = extended_suite();
        let mut cut_suite = extended_suite();
        for &ck in &population {
            if rng.chance(0.8) {
                let id = arena.insert(Pcb::new(ck));
                for entry in whole_suite.iter_mut().chain(cut_suite.iter_mut()) {
                    entry.demux.insert(ck, id);
                }
            }
        }

        for (whole, cut) in whole_suite.iter_mut().zip(cut_suite.iter_mut()) {
            let mut one_batch = Vec::new();
            whole.demux.lookup_batch(&stream, &mut one_batch);

            let mut pieced = Vec::new();
            let mut out = Vec::new();
            let mut start = 0;
            for &end in &cuts {
                cut.demux.lookup_batch(&stream[start..end], &mut out);
                pieced.extend_from_slice(&out);
                start = end;
            }
            assert_eq!(
                one_batch, pieced,
                "cut points changed results for {}",
                whole.name
            );
            assert_eq!(
                whole.demux.stats(),
                cut.demux.stats(),
                "cut points changed LookupStats for {}",
                whole.name
            );
        }
    });
}

/// One explicitly-constructed tier list for the miss-ratio sweep: every
/// single-threaded algorithm family, including the cache-disabled
/// Sequent ablation (not in `extended_suite`), a tiny-table Sequent so
/// chains actually collide, an adaptive table small enough to trigger
/// growth mid-sweep, and the cuckoo tier (which starts at 32 slots, so
/// sweep populations force kicks and growth through its prefetching
/// batch path).
fn sweep_tiers() -> Vec<Box<dyn Demux>> {
    vec![
        Box::new(BsdDemux::new()),
        Box::new(MtfDemux::new()),
        Box::new(SendRecvDemux::new()),
        Box::new(SequentDemux::new(Multiplicative, 19)),
        Box::new(SequentDemux::new(Multiplicative, 19).without_cache()),
        Box::new(SequentDemux::new(XorFold, 5)),
        Box::new(SequentDemux::new(XorFold, 5).without_cache()),
        Box::new(HashedMtfDemux::new(Multiplicative, 19)),
        Box::new(AdaptiveDemux::new(Multiplicative, 4, 4)),
        Box::new(DirectDemux::new()),
        Box::new(CuckooDemux::new()),
    ]
}

/// Satellite sweep for the batch accounting audit: drive every tier —
/// cache-enabled and cache-disabled, plus every concurrent tier — at
/// miss ratios of 0%, 30%, and 100%, and assert the batched path
/// reproduces the sequential `examined` counts and accumulated
/// `LookupStats` exactly. Miss-heavy traffic is where
/// the probe-plus-full-chain-length accounting (and the scanned-prefix
/// replay for repeated missing keys) would drift first.
#[test]
fn batch_accounting_matches_sequential_across_miss_ratios() {
    for miss_pct in [0u32, 30, 100] {
        let name = format!("batch_accounting_miss_ratio_{miss_pct}");
        check_cases(&name, 16, |rng| {
            let mut arena = PcbArena::new();
            let population: Vec<ConnectionKey> = (0..rng.u8_in(1, 60)).map(key).collect();
            let absent: Vec<ConnectionKey> = (0..60).map(miss_key).collect();

            // One shared stream: each slot is a miss with probability
            // miss_pct, drawn from the disjoint never-installed family.
            let stream: Vec<(ConnectionKey, PacketKind)> = rng.vec_of(1, 120, |rng| {
                let ck = if rng.chance(f64::from(miss_pct) / 100.0) {
                    *rng.choose(&absent)
                } else {
                    *rng.choose(&population)
                };
                let kind = if rng.bool() {
                    PacketKind::Ack
                } else {
                    PacketKind::Data
                };
                (ck, kind)
            });
            let cuts: Vec<usize> = {
                let mut cuts = Vec::new();
                let mut i = 0;
                while i < stream.len() {
                    let step = rng.usize_in(1, 40).min(stream.len() - i);
                    i += step;
                    cuts.push(i);
                }
                cuts
            };

            // Single-threaded tiers.
            let mut seq_tiers = sweep_tiers();
            let mut batch_tiers = sweep_tiers();
            let mut ids = Vec::new();
            for &ck in &population {
                let id = arena.insert(Pcb::new(ck));
                ids.push(id);
                for demux in seq_tiers.iter_mut().chain(batch_tiers.iter_mut()) {
                    demux.insert(ck, id);
                }
            }
            for (seq, bat) in seq_tiers.iter_mut().zip(batch_tiers.iter_mut()) {
                assert_eq!(seq.name(), bat.name());
                let mut out = Vec::new();
                let mut start = 0;
                for &end in &cuts {
                    let batch = &stream[start..end];
                    start = end;
                    let sequential: Vec<LookupResult> = batch
                        .iter()
                        .map(|(ck, kind)| seq.lookup(ck, *kind))
                        .collect();
                    bat.lookup_batch(batch, &mut out);
                    assert_eq!(
                        sequential,
                        out,
                        "miss_pct={miss_pct}: batched results diverged for {}",
                        seq.name()
                    );
                }
                assert_eq!(
                    seq.stats(),
                    bat.stats(),
                    "miss_pct={miss_pct}: LookupStats diverged for {}",
                    seq.name()
                );
            }

            // Concurrent tiers (sharded, cuckoo-conc).
            let chains = rng.usize_in(1, 24);
            let seq_conc = concurrent_suite(chains);
            let batch_conc = concurrent_suite(chains);
            for (&ck, &id) in population.iter().zip(&ids) {
                for demux in seq_conc.iter().chain(batch_conc.iter()) {
                    demux.insert(ck, id);
                }
            }
            for (seq, bat) in seq_conc.iter().zip(&batch_conc) {
                assert_eq!(seq.name(), bat.name());
                let mut out = Vec::new();
                let mut start = 0;
                for &end in &cuts {
                    let batch = &stream[start..end];
                    start = end;
                    let sequential: Vec<LookupResult> = batch
                        .iter()
                        .map(|(ck, kind)| seq.lookup(ck, *kind))
                        .collect();
                    bat.lookup_batch(batch, &mut out);
                    assert_eq!(
                        sequential,
                        out,
                        "miss_pct={miss_pct}: batched results diverged for {}",
                        seq.name()
                    );
                }
                assert_eq!(
                    seq.stats_snapshot(),
                    bat.stats_snapshot(),
                    "miss_pct={miss_pct}: LookupStats diverged for {}",
                    seq.name()
                );
            }
        });
    }
}

/// The same batch≡sequential property for every `ConcurrentDemux`
/// tier — including the lock-free-read `ConcurrentCuckooDemux`, whose
/// batch path probes every key under a single epoch pin. Driven from one
/// thread, so the sequential twin is a well-defined oracle; the
/// multi-threaded behaviour is covered by `tests/concurrent_stress.rs`.
#[test]
fn concurrent_batch_lookup_matches_sequential_lookup() {
    check_cases(
        "concurrent_batch_lookup_matches_sequential_lookup",
        32,
        |rng| {
            let mut arena = PcbArena::new();
            let chains = rng.usize_in(1, 24);
            let seq_suite = concurrent_suite(chains);
            let batch_suite = concurrent_suite(chains);

            let population: Vec<ConnectionKey> = (0..rng.u8_in(1, 80)).map(key).collect();
            let mut installed = Vec::new();
            for &ck in &population {
                if rng.chance(0.7) {
                    let id = arena.insert(Pcb::new(ck));
                    installed.push(ck);
                    for demux in seq_suite.iter().chain(batch_suite.iter()) {
                        demux.insert(ck, id);
                    }
                }
            }

            let rounds = rng.usize_in(1, 10);
            let mut script = Vec::new();
            for _ in 0..rounds {
                let batch: Vec<(ConnectionKey, PacketKind)> = rng.vec_of(0, 40, |rng| {
                    let ck = *rng.choose(&population);
                    let kind = if rng.bool() {
                        PacketKind::Ack
                    } else {
                        PacketKind::Data
                    };
                    (ck, kind)
                });
                let mutations = rng.vec_of(0, 4, |rng| match rng.u8_in(0, 1) {
                    0 => Mutation::Insert(rng.u8()),
                    _ => Mutation::Remove(rng.u8()),
                });
                script.push((batch, mutations));
            }

            for (seq, bat) in seq_suite.iter().zip(&batch_suite) {
                assert_eq!(seq.name(), bat.name());
                let mut installed = installed.clone();
                let mut out = Vec::new();
                for (batch, mutations) in &script {
                    let sequential: Vec<LookupResult> = batch
                        .iter()
                        .map(|(ck, kind)| seq.lookup(ck, *kind))
                        .collect();
                    bat.lookup_batch(batch, &mut out);
                    assert_eq!(
                        sequential,
                        out,
                        "batched results diverged for {}",
                        seq.name()
                    );
                    for m in mutations {
                        match *m {
                            Mutation::Insert(n) => {
                                let ck = key(n);
                                if !installed.contains(&ck) {
                                    let id = arena.insert(Pcb::new(ck));
                                    installed.push(ck);
                                    seq.insert(ck, id);
                                    bat.insert(ck, id);
                                }
                            }
                            Mutation::Remove(n) => {
                                let ck = key(n);
                                installed.retain(|&k| k != ck);
                                assert_eq!(seq.remove(&ck), bat.remove(&ck));
                            }
                            Mutation::NoteSend(_) => unreachable!("not generated here"),
                        }
                    }
                }
                assert_eq!(
                    seq.stats_snapshot(),
                    bat.stats_snapshot(),
                    "accumulated LookupStats diverged for {}",
                    seq.name()
                );
                assert_eq!(seq.len(), bat.len());
            }
        },
    );
}
