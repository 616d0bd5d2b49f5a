//! Short runs of every workload in the benchmark's own configuration
//! (only the timed phase is cut to a fixed number of operations): the
//! same seed must reproduce every count exactly, another seed must change
//! the arrival order, and the traced run's replica cross-check and
//! correctness gates must pass.

use tcpdemux_perfbench::{
    bulk::Bulk, churn::Churn, oltp::Oltp, run_serial, sharded, Limit, Run, RunConfig,
};

const WORKLOADS: [&str; 4] = ["oltp", "bulk", "churn", "sharded"];

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let ops = match workload {
        "bulk" => 24,
        "sharded" => 20_000,
        _ => 2_000,
    };
    let config = RunConfig {
        seed,
        limit: Limit::Ops(ops),
        trace,
    };
    let run = match workload {
        "oltp" => run_serial::<Oltp>(config),
        "bulk" => run_serial::<Bulk>(config),
        "churn" => run_serial::<Churn>(config),
        "sharded" => sharded::run(config),
        other => unreachable!("no workload {other}"),
    }
    .unwrap_or_else(|fatal| panic!("{workload} seed {seed}: {}", fatal.0));
    assert!(
        run.violations.is_empty(),
        "{workload} seed {seed}: {:?}",
        run.violations
    );
    run
}

#[test]
fn same_seed_reproduces_every_count() {
    for workload in WORKLOADS {
        let a = run(workload, 7, false);
        let b = run(workload, 7, false);
        assert!(
            a.counts.ops > 0 && a.counts.frames > 0,
            "{workload}: empty run"
        );
        assert_eq!(
            a.counts, b.counts,
            "{workload}: same seed, different counts"
        );
    }
}

#[test]
fn another_seed_changes_the_arrival_order() {
    for workload in WORKLOADS {
        let a = run(workload, 7, false);
        let c = run(workload, 8, false);
        assert_ne!(
            a.counts.arrival_fp, c.counts.arrival_fp,
            "{workload}: seeds 7 and 8 gave the same arrival order"
        );
    }
}

#[test]
fn bulk_loses_and_recovers_frames() {
    let run = run("bulk", 7, false);
    assert!(run.counts.drops > 0, "1 % loss dropped nothing");
    assert!(run.counts.retransmits > 0, "losses were never repaired");
    assert_eq!(run.untraced.failed, 0);
}

#[test]
fn traced_runs_pass_the_replica_cross_check() {
    for workload in WORKLOADS {
        let run = run(workload, 7, true);
        let layers = run.layers.as_ref().expect("a traced run has layers");
        let metrics = layers.metrics();
        let get = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{workload}: no metric {name}"))
                .value
        };
        assert!(
            get("core.lookup_ns") > 0.0,
            "{workload}: replica timed nothing"
        );
        assert!(
            get("stack.rx.ns_per_frame") > 0.0,
            "{workload}: no receive spans"
        );
        if workload == "bulk" {
            assert!(get("core.pcbs_examined_mean") <= 2.0);
        }
        if workload == "churn" {
            assert!(get("core.insert_ns") > 0.0 && get("core.remove_ns") > 0.0);
            assert!(get("timer.reclaimed") > 0.0);
        }
        if workload == "sharded" {
            assert!(get("runtime.enqueue_ns") > 0.0 && get("hash.steer_ns") > 0.0);
        }
    }
}
