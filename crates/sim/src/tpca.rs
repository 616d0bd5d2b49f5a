//! The TPC/A workload simulation (paper §2).
//!
//! `N` users each cycle through: *enter transaction* → wait `R` for the
//! response → *think* (truncated exponential, mean 10 s). The server's
//! packet timeline per transaction, matching the paper's four-packet
//! model:
//!
//! ```text
//! t          : transaction (query) arrives         -> demux (Data)
//! t          : query's transport-level ack sent    -> send-cache update
//! t + R      : response sent                       -> send-cache update
//! t + R + D  : response's transport-level ack back -> demux (Ack)
//! next query : t + R + D + think
//! ```
//!
//! The client-side halves of the round trip fold into `R` and `D` exactly
//! as the paper's timeline figures (Figures 5–11) do.

use crate::engine::EventQueue;
use crate::rng::SimRng;
use crate::runner::{run_trace, AlgoReport, TraceEvent};
use crate::time::SimTime;
use tcpdemux_core::{standard_suite, PacketKind, SuiteEntry};
use tcpdemux_hash::quality::tpca_key_population;
use tcpdemux_pcb::ConnectionKey;

/// Configuration for a TPC/A simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpcaSimConfig {
    /// Number of simulated users (= connections).
    pub users: u32,
    /// Transactions to measure (after warm-up).
    pub transactions: u64,
    /// Transactions to run (and discard) before measuring, letting the
    /// lookup structures reach their steady-state ordering.
    pub warmup_transactions: u64,
    /// Response time `R` in seconds.
    pub response_time: f64,
    /// Network round trip `D` in seconds.
    pub round_trip: f64,
    /// Mean think time in seconds (TPC/A minimum: 10).
    pub mean_think: f64,
    /// Think-time truncation point as a multiple of the mean (TPC/A
    /// minimum: 10).
    pub truncation_multiple: f64,
    /// Query segments per transaction (default 1). The paper's §3.4
    /// recounts runs with "old versions of database software that sent
    /// three times as many packets for each transaction as necessary",
    /// which inflated cache hit ratios to 30 % (up to 67 % if the extras
    /// arrive back to back) without reducing the PCBs searched per
    /// transaction. Set to 3 to reproduce that pitfall.
    pub queries_per_txn: u32,
}

impl Default for TpcaSimConfig {
    fn default() -> Self {
        Self {
            users: 2000,
            transactions: 20_000,
            warmup_transactions: 4_000,
            response_time: 0.2,
            round_trip: 0.01,
            mean_think: 10.0,
            truncation_multiple: 10.0,
            queries_per_txn: 1,
        }
    }
}

/// A TPC/A traffic simulator.
#[derive(Debug)]
pub struct TpcaSim {
    config: TpcaSimConfig,
    seed: u64,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A user's transaction (query) arrives at the server.
    Txn(u32),
    /// The server transmits the response for a user's transaction.
    RspSend(u32),
    /// The transport-level acknowledgement of the response arrives.
    AckArrival(u32),
}

impl TpcaSim {
    /// Create a simulator; equal `(config, seed)` pairs produce identical
    /// traces.
    pub fn new(config: TpcaSimConfig, seed: u64) -> Self {
        assert!(config.users >= 2, "need at least two users");
        assert!(config.response_time > 0.0 && config.round_trip >= 0.0);
        assert!(config.mean_think > 0.0 && config.truncation_multiple >= 1.0);
        Self { config, seed }
    }

    /// The connection keys, one per user.
    pub fn keys(&self) -> Vec<ConnectionKey> {
        tpca_key_population(self.config.users as usize)
    }

    /// Generate the full event trace, returning `(warmup, measured)`
    /// segments. `Open` events for every connection lead the warm-up.
    pub fn trace(&self) -> (Vec<TraceEvent>, Vec<TraceEvent>) {
        let cfg = &self.config;
        let keys = self.keys();
        let mut rng = SimRng::new(self.seed);
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let mut events: Vec<TraceEvent> = Vec::new();
        let mut split_at: Option<usize> = None;

        for key in &keys {
            events.push(TraceEvent::Open {
                at: SimTime::ZERO,
                key: *key,
            });
        }

        // Users begin mid-think so the start is already in steady state.
        for user in 0..cfg.users {
            let first =
                rng.truncated_exponential(cfg.mean_think, cfg.mean_think * cfg.truncation_multiple);
            queue.schedule(SimTime::from_secs_f64(first), Ev::Txn(user));
        }

        let total_txns = cfg.warmup_transactions + cfg.transactions;
        let mut started = 0u64;
        let r = SimTime::from_secs_f64(cfg.response_time);
        let rd = SimTime::from_secs_f64(cfg.response_time + cfg.round_trip);

        while let Some((at, ev)) = queue.pop() {
            match ev {
                Ev::Txn(user) => {
                    if started >= total_txns {
                        // The transaction budget is spent; users whose
                        // events were already queued simply stop.
                        continue;
                    }
                    if started == cfg.warmup_transactions && split_at.is_none() {
                        split_at = Some(events.len());
                    }
                    started += 1;
                    let key = keys[user as usize];
                    for _ in 0..cfg.queries_per_txn.max(1) {
                        events.push(TraceEvent::Arrival {
                            at,
                            key,
                            kind: PacketKind::Data,
                        });
                    }
                    // Transport-level ack of the query goes out at once.
                    events.push(TraceEvent::Departure { at, key });
                    queue.schedule(at + r, Ev::RspSend(user));
                    queue.schedule(at + rd, Ev::AckArrival(user));
                }
                Ev::RspSend(user) => {
                    events.push(TraceEvent::Departure {
                        at,
                        key: keys[user as usize],
                    });
                }
                Ev::AckArrival(user) => {
                    events.push(TraceEvent::Arrival {
                        at,
                        key: keys[user as usize],
                        kind: PacketKind::Ack,
                    });
                    if started < total_txns {
                        let think = rng.truncated_exponential(
                            cfg.mean_think,
                            cfg.mean_think * cfg.truncation_multiple,
                        );
                        queue.schedule(at + SimTime::from_secs_f64(think), Ev::Txn(user));
                    }
                }
            }
        }

        let split = split_at.unwrap_or(events.len());
        let measured = events.split_off(split);
        (events, measured)
    }

    /// Run the trace through a caller-supplied suite: warm up, reset
    /// nothing (the structures keep their steady-state order), and report
    /// statistics over the measured segment only.
    pub fn run(&self, suite: &mut [SuiteEntry]) -> Vec<AlgoReport> {
        let (warmup, measured) = self.trace();
        let _ = run_trace(warmup, suite);
        run_trace(measured, suite)
    }

    /// Run against [`standard_suite`].
    pub fn run_standard_suite(&self) -> Vec<AlgoReport> {
        let mut suite = standard_suite();
        self.run(&mut suite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpdemux_analytic as analytic;

    fn small_config() -> TpcaSimConfig {
        TpcaSimConfig {
            users: 200,
            transactions: 6_000,
            warmup_transactions: 1_000,
            response_time: 0.2,
            round_trip: 0.01,
            ..TpcaSimConfig::default()
        }
    }

    #[test]
    fn trace_is_reproducible() {
        let sim = TpcaSim::new(small_config(), 11);
        let (w1, m1) = sim.trace();
        let (w2, m2) = TpcaSim::new(small_config(), 11).trace();
        assert_eq!(w1, w2);
        assert_eq!(m1, m2);
        let (w3, _) = TpcaSim::new(small_config(), 12).trace();
        assert_ne!(w1, w3);
    }

    #[test]
    fn trace_structure() {
        let cfg = TpcaSimConfig {
            users: 10,
            transactions: 50,
            warmup_transactions: 10,
            ..TpcaSimConfig::default()
        };
        let sim = TpcaSim::new(cfg, 1);
        let (warmup, measured) = sim.trace();

        // Warmup leads with one Open per user.
        let opens = warmup
            .iter()
            .filter(|e| matches!(e, TraceEvent::Open { .. }))
            .count();
        assert_eq!(opens, 10);
        assert!(measured
            .iter()
            .all(|e| !matches!(e, TraceEvent::Open { .. })));

        // Every transaction contributes 2 arrivals and 2 departures.
        let all: Vec<_> = warmup.iter().chain(measured.iter()).collect();
        let arrivals = all
            .iter()
            .filter(|e| matches!(e, TraceEvent::Arrival { .. }))
            .count();
        let departures = all
            .iter()
            .filter(|e| matches!(e, TraceEvent::Departure { .. }))
            .count();
        assert_eq!(arrivals, 2 * 60);
        assert_eq!(departures, 2 * 60);

        // Data and Ack arrivals alternate per transaction: equal counts.
        let data = all
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::Arrival {
                        kind: PacketKind::Data,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(data, 60);

        // Timestamps are nondecreasing within each segment.
        for seg in [&warmup, &measured] {
            for w in seg.windows(2) {
                assert!(w[0].at() <= w[1].at());
            }
        }
    }

    #[test]
    fn no_lost_packets() {
        let sim = TpcaSim::new(small_config(), 3);
        let reports = sim.run_standard_suite();
        for r in &reports {
            assert_eq!(r.lost_packets, 0, "{}", r.name);
            // Exactly one data packet per measured transaction; a handful
            // of warm-up transactions' acks are still in flight at the
            // measurement boundary, so ack lookups may exceed by at most
            // the number of users.
            assert_eq!(r.data_stats.lookups, 6_000, "{}", r.name);
            assert!(
                (12_000..12_000 + 200).contains(&r.stats.lookups),
                "{}: {}",
                r.name,
                r.stats.lookups
            );
        }
    }

    #[test]
    fn bsd_matches_equation_1() {
        let sim = TpcaSim::new(small_config(), 5);
        let reports = sim.run_standard_suite();
        let bsd = reports.iter().find(|r| r.name == "bsd").unwrap();
        let predicted = analytic::bsd::cost(200.0);
        let got = bsd.stats.mean_examined();
        assert!(
            (got - predicted).abs() / predicted < 0.05,
            "sim {got} vs Eq.1 {predicted}"
        );
    }

    #[test]
    fn mtf_matches_equation_6() {
        let sim = TpcaSim::new(small_config(), 7);
        let reports = sim.run_standard_suite();
        let mtf = reports.iter().find(|r| r.name == "mtf").unwrap();
        // The analytic model counts PCBs *preceding* the target; the
        // simulator counts PCBs *examined* (one more). Compare accordingly.
        let predicted = analytic::mtf::average_cost(200.0, 0.2) + 1.0;
        let got = mtf.stats.mean_examined();
        assert!(
            (got - predicted).abs() / predicted < 0.08,
            "sim {got} vs Eq.6 {predicted}"
        );
        // And the ack/entry split should match Eq. 5 vs N(2R).
        let entry_pred = analytic::mtf::entry_search_length(200.0, 0.2) + 1.0;
        let ack_pred = analytic::mtf::ack_search_length(200.0, 0.2) + 1.0;
        let entry_got = mtf.data_stats.mean_examined();
        let ack_got = mtf.ack_stats.mean_examined();
        assert!(
            (entry_got - entry_pred).abs() / entry_pred < 0.08,
            "entry {entry_got} vs {entry_pred}"
        );
        assert!(
            (ack_got - ack_pred).abs() / ack_pred < 0.25,
            "ack {ack_got} vs {ack_pred}"
        );
    }

    #[test]
    fn sequent_matches_equation_22() {
        let sim = TpcaSim::new(small_config(), 9);
        let reports = sim.run_standard_suite();
        let seq = reports.iter().find(|r| r.name == "sequent(19)").unwrap();
        let predicted = analytic::sequent::cost(200.0, 19.0, 0.2);
        let got = seq.stats.mean_examined();
        // Hash-chain imbalance adds variance; the shape must hold within
        // a generous band.
        assert!(
            (got - predicted).abs() / predicted < 0.30,
            "sim {got} vs Eq.22 {predicted}"
        );
    }

    #[test]
    fn ordering_matches_figure_13() {
        // The paper's qualitative claim at any scale: direct < sequent <
        // {mtf, send-recv} < bsd on TPC/A traffic.
        let sim = TpcaSim::new(small_config(), 13);
        let reports = sim.run_standard_suite();
        let get = |name: &str| {
            reports
                .iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("{name}"))
                .stats
                .mean_examined()
        };
        assert!(get("direct-index") < get("sequent(100)"));
        assert!(get("sequent(100)") < get("sequent(19)"));
        assert!(get("sequent(19)") < get("mtf"));
        assert!(get("mtf") < get("bsd"));
        assert!(get("send-recv") < get("bsd") + 3.0);
        // Order-of-magnitude headline.
        assert!(get("bsd") / get("sequent(19)") > 5.0);
    }

    #[test]
    fn hit_ratio_pitfall_with_redundant_packets() {
        // §3.4: chatty software tripling the packets per transaction
        // inflates the cache hit ratio dramatically while the PCBs
        // searched *per transaction* do not improve. "Focusing strictly
        // on hit ratio is a common pitfall."
        let run = |queries_per_txn: u32| {
            let cfg = TpcaSimConfig {
                users: 200,
                transactions: 4_000,
                warmup_transactions: 500,
                queries_per_txn,
                ..TpcaSimConfig::default()
            };
            let reports = TpcaSim::new(cfg, 31).run_standard_suite();
            let seq = reports.iter().find(|r| r.name == "sequent(19)").unwrap();
            let per_txn = seq.stats.pcbs_examined as f64
                / (seq.data_stats.lookups as f64 / f64::from(queries_per_txn));
            (seq.stats.hit_rate(), per_txn)
        };
        let (hit_1x, per_txn_1x) = run(1);
        let (hit_3x, per_txn_3x) = run(3);

        // Hit ratio balloons (the back-to-back duplicates all hit)...
        assert!(hit_3x > hit_1x + 0.25, "hit {hit_1x} -> {hit_3x}");
        assert!(hit_3x > 0.45, "{hit_3x}");
        // ...but the work per transaction is at least as large.
        assert!(
            per_txn_3x >= per_txn_1x * 0.98,
            "per-txn cost {per_txn_1x} -> {per_txn_3x} must not improve"
        );
    }

    #[test]
    #[should_panic(expected = "at least two users")]
    fn one_user_rejected() {
        let cfg = TpcaSimConfig {
            users: 1,
            ..TpcaSimConfig::default()
        };
        let _ = TpcaSim::new(cfg, 0);
    }
}
