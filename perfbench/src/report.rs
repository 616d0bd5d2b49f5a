//! Turning a [`Run`] into metrics: the end-to-end set of an untraced
//! run, the per-layer set of a traced run, and the JSON result line.

use crate::measure::{peak_rss_mb, ratio, Agg, Hist, Kind, Tracer, WindowStat};
use crate::replica::{DemuxLog, FrameSample};
use crate::{Fatal, Meters, Phase, Run, Totals};
use std::fmt::Write as _;
use std::time::Duration;
use tcpdemux_stack::ShardedStack;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Inputs of the per-layer metrics, collected during a traced phase.
#[derive(Default)]
pub struct Layers {
    pub phase: Phase,
    /// Receive latency of every frame on the measured receiver (traced
    /// phase).
    pub frame_lat: Hist,
    pub examined: Hist,
    pub frames: u64,
    pub useful: u64,
    pub cwnd: Hist,
    pub timer_retransmits: u64,
    pub timer_reclaimed: u64,
    /// Counter deltas over the traced phase: the measured receiver, and
    /// all stacks.
    pub receiver: Totals,
    pub stacks: Totals,
    /// Span totals (phase spans and replay spans).
    pub aggs: Vec<(Kind, Agg)>,
    /// Sharded runtime: ring waits (ns), retries, drains, relookups.
    pub ring_wait: Hist,
    pub ring_full_retries: u64,
    pub drains: u64,
    pub empty_drains: u64,
    pub relookups: u64,
    /// Sharded: per-drain-call receive cost per frame (ns).
    pub drain_per_frame: Hist,
    pub sharded: bool,
    pub untraced_ops_per_s: f64,
    /// Replayed lookups whose examined counts matched the stack's.
    pub replica_checked: u64,
}

/// How long each single-layer replay runs.
const REPLAY_BUDGET: Duration = Duration::from_millis(200);

impl Layers {
    /// Per-layer inputs from the meters of a just-finished traced phase.
    pub fn from_meters(m: &Meters, phase: Phase) -> Self {
        Self {
            phase,
            frame_lat: m.frame_lat.clone(),
            examined: m.examined.clone(),
            frames: m.frames,
            useful: m.useful,
            cwnd: m.cwnd.clone(),
            timer_retransmits: m.timer_retransmits,
            timer_reclaimed: m.timer_reclaimed,
            ..Self::default()
        }
    }

    /// Run the single-layer replays into `tracer`: each demux log into
    /// its own replica (with the examined-count cross-check), the frame
    /// sample through the wire parsers and, for a sharded stack, through
    /// steering.
    pub fn replay(
        &mut self,
        logs: &[DemuxLog],
        sample: &FrameSample,
        steer: Option<&ShardedStack>,
        tracer: &mut Tracer,
    ) -> Result<(), Fatal> {
        for log in logs {
            self.replica_checked += log.replay(tracer).map_err(Fatal)?;
        }
        sample.replay_parse(tracer, REPLAY_BUDGET).map_err(Fatal)?;
        if let Some(stack) = steer {
            sample
                .replay_steer(stack, tracer, REPLAY_BUDGET)
                .map_err(Fatal)?;
        }
        Ok(())
    }

    /// Capture the tracer's span totals.
    pub fn aggs_from(&mut self, tracer: &Tracer) {
        self.aggs = Kind::ALL.iter().map(|&k| (k, tracer.agg(k))).collect();
    }

    fn agg(&self, kind: Kind) -> Agg {
        self.aggs
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or_else(Agg::default, |(_, a)| *a)
    }

    /// The per-layer metrics, under the names `BENCHMARK.json` lists.
    /// Layers a workload does not exercise read 0.
    pub fn metrics(&self) -> Vec<Metric> {
        let a = |k| self.agg(k);
        let lookups = a(Kind::ReplayLookup);
        let reads = a(Kind::Read);
        let polls = a(Kind::Poll);
        let drain = a(Kind::Drain);
        let ops = self.phase.ops as f64;
        let r = &self.receiver;
        let (rx_ns, rx_p99) = if self.sharded {
            (drain.ns_per_unit(), self.drain_per_frame.quantile(0.99))
        } else {
            (a(Kind::ServerRx).mean_ns(), self.frame_lat.quantile(0.99))
        };
        let driver_self = if self.sharded {
            ratio(
                (a(Kind::Ingress).self_ns + a(Kind::Worker).self_ns) as f64,
                ops,
            )
        } else {
            ratio(a(Kind::Op).self_ns as f64, a(Kind::Op).count as f64)
        };
        let frames = self.frames as f64;
        vec![
            metric("core.lookup_ns", lookups.ns_per_unit(), "ns"),
            metric("core.pcbs_examined_mean", self.examined.mean(), "count"),
            metric(
                "core.pcbs_examined_p99",
                self.examined.quantile(0.99),
                "count",
            ),
            metric(
                "core.cache_hit_ratio",
                ratio(r.cache_hits as f64, r.lookups as f64),
                "ratio",
            ),
            metric("core.insert_ns", a(Kind::ReplayInsert).mean_ns(), "ns"),
            metric("core.remove_ns", a(Kind::ReplayRemove).mean_ns(), "ns"),
            metric(
                "core.hit_ratio",
                ratio(r.found as f64, r.lookups as f64),
                "ratio",
            ),
            metric("stack.rx.ns_per_frame", rx_ns, "ns"),
            metric("stack.rx.p99_ns", rx_p99, "ns"),
            metric(
                "stack.rx.useful_ratio",
                ratio(self.useful as f64, frames),
                "ratio",
            ),
            metric("stack.rx.resets_sent", r.resets_sent as f64, "count"),
            metric("stack.rx.ooo_drops", r.ooo_drops as f64, "count"),
            metric(
                "wire.parse_ns_per_frame",
                a(Kind::ReplayParse).ns_per_unit(),
                "ns",
            ),
            metric(
                "socket.read_ns_per_kib",
                ratio(reads.total_ns as f64, reads.units as f64 / 1024.0),
                "ns/KiB",
            ),
            metric("stack.tx.send_ns", a(Kind::Send).mean_ns(), "ns"),
            metric("stack.tx.poll_ns_per_segment", polls.ns_per_unit(), "ns"),
            metric(
                "stack.tx.segments_per_poll",
                ratio(polls.units as f64, polls.count as f64),
                "count",
            ),
            metric(
                "pcb.retransmit_ratio",
                ratio(
                    self.stacks.retransmits as f64,
                    self.stacks.frames_out as f64,
                ),
                "ratio",
            ),
            metric("pcb.cwnd_p50_bytes", self.cwnd.quantile(0.5), "B"),
            metric(
                "timer.advance_ns_per_call",
                a(Kind::Advance).mean_ns(),
                "ns",
            ),
            metric("timer.retransmits", self.timer_retransmits as f64, "count"),
            metric("timer.reclaimed", self.timer_reclaimed as f64, "count"),
            metric("hash.steer_ns", a(Kind::ReplaySteer).ns_per_unit(), "ns"),
            metric("runtime.enqueue_ns", a(Kind::Enqueue).mean_ns(), "ns"),
            metric("runtime.drain_ns_per_frame", drain.ns_per_unit(), "ns"),
            metric(
                "runtime.ring_wait_p50_ns",
                self.ring_wait.quantile(0.5),
                "ns",
            ),
            metric(
                "runtime.ring_wait_p99_ns",
                self.ring_wait.quantile(0.99),
                "ns",
            ),
            metric(
                "runtime.ring_full_retries_per_frame",
                ratio(self.ring_full_retries as f64, drain.units as f64),
                "count",
            ),
            metric(
                "runtime.batch_mean",
                ratio(drain.units as f64, (self.drains - self.empty_drains) as f64),
                "frames",
            ),
            metric(
                "runtime.empty_drain_ratio",
                ratio(self.empty_drains as f64, self.drains as f64),
                "ratio",
            ),
            metric(
                "runtime.relookup_ratio",
                ratio(self.relookups as f64, drain.units as f64),
                "ratio",
            ),
            metric("driver.self_ns_per_op", driver_self, "ns"),
            metric(
                "trace.overhead_ratio",
                ratio(self.untraced_ops_per_s, self.phase.ops_per_s()),
                "ratio",
            ),
        ]
    }
}

/// The report of one run: the JSON metrics, plus lines for people.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
}

/// Median over every window of a per-window statistic (0 without
/// windows). The receive-latency quantiles are reported this way: other
/// processes on the host lengthen the tail of a few windows at a time,
/// which swings the whole-run p99 (see README.md), and the median window
/// drops outlying windows as readily on the fast side as on the slow one.
fn window_median(windows: &[WindowStat], f: impl Fn(&WindowStat) -> f64) -> f64 {
    median(&windows.iter().map(f).collect::<Vec<_>>())
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Build the report: end-to-end metrics for an untraced run, per-layer
/// metrics for a traced one.
pub fn report(run: &Run) -> Report {
    let (attempted, failed) = run.attempted_failed();
    let u = &run.untraced;
    let fail_frac = ratio(failed as f64, attempted as f64);
    let e2e = vec![
        metric("ops_per_s", u.ops_per_s(), "1/s"),
        metric("rx_p50_ns", window_median(&u.windows, |x| x.rx_p50), "ns"),
        metric("rx_p99_ns", window_median(&u.windows, |x| x.rx_p99), "ns"),
        metric("goodput_mbps", u.bytes_per_s() / 1e6, "MB/s"),
        metric("setup_s", median(&run.setup_secs), "s"),
        metric("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MiB"),
    ];
    let mut lines = vec![format!(
        "workload {} seed {} trace {} nproc {} (frames cross no real link: in-process stacks only)",
        run.workload,
        run.config.seed,
        u8::from(run.config.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    )];
    let row = |m: &Metric, note: String| {
        format!("  {:<36} {:>16.4} {:<7} {}", m.name, m.value, m.unit, note)
    };
    for m in &e2e {
        let note = match m.name {
            "rx_p50_ns" | "rx_p99_ns" => format!(
                "(median of {} windows; {} receive samples, whole-run p50 {:.1} p99 {:.1})",
                u.windows.len(),
                run.rx_lat.count(),
                run.rx_lat.quantile(0.5),
                run.rx_lat.quantile(0.99)
            ),
            "ops_per_s" => format!("({} ops in {:.3} s)", u.ops, u.secs),
            "goodput_mbps" => format!("({} B verified in {:.3} s)", u.verified, u.secs),
            "setup_s" => format!("(median of {} set-ups)", run.setup_secs.len()),
            _ => String::new(),
        };
        lines.push(row(m, note));
    }
    lines.push(row(
        &metric("fail_frac", fail_frac, "ratio"),
        format!("({failed} failed of {attempted} ops; also the JSON attempted/failed)"),
    ));
    let metrics = match &run.layers {
        Some(layers) => {
            let per_layer = layers.metrics();
            for m in &per_layer {
                lines.push(row(m, String::new()));
            }
            per_layer
        }
        None => e2e,
    };
    if let Some(layers) = &run.layers {
        lines.push(format!(
            "  replica cross-check: {} replayed lookups examined exactly as many PCBs as the stack",
            layers.replica_checked
        ));
        let rx = layers.agg(Kind::ServerRx).mean_ns();
        let lookup = layers.agg(Kind::ReplayLookup).ns_per_unit();
        if rx > 0.0 {
            lines.push(format!(
                "  core.lookup_ns is {:.1} % of stack.rx.ns_per_frame ({lookup:.1} of {rx:.1} ns)",
                100.0 * lookup / rx
            ));
        }
    }
    let correct = run.violations.is_empty();
    for v in &run.violations {
        lines.push(format!("  CHECK FAILED: {v}"));
    }
    lines.extend(run.notes.iter().map(|n| format!("  {n}")));
    lines.push(format!(
        "  verdict: {}",
        if correct { "correct" } else { "INCORRECT" }
    ));
    Report {
        correct,
        attempted,
        failed,
        metrics,
        lines,
    }
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
