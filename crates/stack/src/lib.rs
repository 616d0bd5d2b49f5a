//! A miniature TCP/IPv4 receive path built around the demultiplexers.
//!
//! The paper's algorithms live inside a kernel's packet-receive path; this
//! crate provides that path, end to end, over real packet bytes:
//!
//! ```text
//! raw frame → IPv4 parse+checksum → TCP parse+checksum → ConnectionKey
//!           → Demux::lookup (the paper's subject) → PCB state machine
//!           → socket delivery + reply segments (ACK/SYN-ACK/RST)
//! ```
//!
//! Two [`Stack`]s can be wired back to back ([`Stack::connect`] +
//! shuttling the returned frames) to run full handshakes, data transfer,
//! and teardown purely in memory. A [`FaultInjector`] can corrupt or drop
//! frames in between, demonstrating that damaged packets die at the
//! checksum long before they reach the demultiplexer.
//!
//! The transfer engine keeps in-order delivery only (out-of-order
//! segments are dropped and re-ACKed) because the object of study is the
//! lookup path — but the *send* path is a real windowed transmit engine:
//! [`Stack::send`] enqueues into a per-connection send buffer and
//! [`Stack::poll_transmit`] emits whatever `min(peer rwnd, cwnd)`
//! permits, with slow start, AIMD congestion avoidance, fast retransmit
//! / fast recovery on three duplicate ACKs (Reno or NewReno via the
//! pluggable [`CongestionControl`] trait, configured through
//! [`WindowConfig`]), zero-window persist probes, optional delayed ACKs,
//! and dynamic receive-window advertisement. Also faithful: header
//! formats, checksums, sequence-number accounting, the RFC 793 state
//! machine, listener (wildcard) matching semantics, RST generation for
//! unmatched segments, and sender-side loss recovery: every SYN,
//! SYN-ACK, FIN, and data segment sits on a retransmission queue with an
//! RTO from the Jacobson/Karels [`tcpdemux_pcb::RttEstimator`] (Karn's
//! rule on samples, exponential backoff on expiry) until acknowledged —
//! [`Stack::advance_time`] fires the retransmits (head-of-queue only;
//! the provoked cumulative ACK retires the rest) and, past the retry
//! budget, aborts the connection with a [`SocketError`] the application
//! can observe.
//!
//! # Batched receive and allocation-free transmit
//!
//! [`Stack::receive_batch`] takes a slice of frames — a NIC receive
//! ring's worth of packets per interrupt — and runs [`Stack::receive`] on each in order, so every frame still costs
//! exactly one demux lookup. Batched *lookups* live inside the
//! demultiplexers ([`tcpdemux_core::Demux::lookup_batch`]), where they
//! pay; at stack level they did not (EXPERIMENTS.md A1b).
//!
//! On the transmit side, every emitted frame draws its buffer from an
//! internal [`TxPool`]. A caller that returns spent buffers via
//! [`Stack::recycle`] makes steady-state transmission allocation-free:
//! after warm-up, ACKs, data segments, and RSTs all reuse recycled
//! capacity (the `tx_pool` counters in [`Stack::stats`] pin this in
//! tests).
//!
//! # Example
//!
//! ```
//! use tcpdemux_stack::{Stack, StackConfig};
//! use std::net::Ipv4Addr;
//!
//! let server_addr = Ipv4Addr::new(10, 0, 0, 1);
//! let client_addr = Ipv4Addr::new(10, 0, 0, 2);
//! // One construction path: the config carries the demux factory (the
//! // paper's sequent(19) by default), recorder, and shard id.
//! let mut server = Stack::with_config(StackConfig::new(server_addr));
//! let mut client = Stack::with_config(StackConfig::new(client_addr));
//! server.listen(1521).unwrap();
//! let (client_pcb, syn) = client.connect(server_addr, 1521).unwrap();
//!
//! // Shuttle the handshake: SYN -> SYN-ACK -> ACK.
//! let synack = server.receive(&syn).unwrap().replies;
//! let ack = client.receive(&synack[0]).unwrap().replies;
//! server.receive(&ack[0]).unwrap();
//! assert!(client.is_established(client_pcb));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod fault;
pub mod neighbor;
mod runtime;
pub mod shard;
mod socket;
mod stack;
mod stats;
pub mod timer;
mod txpool;

pub use fault::{checksum_covered_span, FaultInjector, FaultOutcome};
pub use neighbor::NeighborCache;
pub use runtime::{RingFull, ShardedStack};
pub use shard::{steering_key, PlacementStats, ShardId, SteerTable};
pub use socket::{SocketBuffer, SocketError};
pub use stack::{
    BatchRxResult, CcFactory, ConnectionInfo, DemuxFactory, ListenConfig, ListenerInfo, RxOutcome,
    RxResult, Stack, StackConfig, StackError, TimeAdvance, TxScratch, WindowConfig,
};
pub use stats::{StackStats, StatsSnapshot};
// Congestion-control building blocks, re-exported so applications can
// configure `WindowConfig::with_congestion_control` without a direct
// tcpdemux-pcb dependency.
pub use tcpdemux_pcb::{CcAction, CongestionControl, CongestionState, NewReno, Reno};
// The telemetry types a Stack user touches through `Stack::stats()` and
// `Stack::recorder()`, re-exported for convenience.
pub use tcpdemux_core::spsc::RingStats;
pub use tcpdemux_telemetry::{CloseCause, CounterId, Event, HistogramId, Recorder, Snapshot};
pub use timer::{TimerId, TimerWheel};
pub use txpool::{TxPool, TxPoolStats};
