//! The per-layer metrics: their names, and how a traced twin's spans and
//! tallies become them. Layers are the crate names.

use crate::timed::Cb;
use crate::twin::{self, TwinOut};

/// `(name, unit, better)` of every per-layer metric, in report order.
/// `BENCHMARK.json` lists exactly these (pinned by a unit test). A
/// workload reports 0 for a metric it cannot measure — the in-workload
/// ones need a twin, which `abuse_64` and `ctl_plane` do not have.
pub const PER_LAYER: [(&str, &str, &str); 49] = [
    // In-workload, from the traced twin.
    ("netsim.sim.events", "count", "lower"),
    ("netsim.sim.self_s", "s", "lower"),
    ("netsim.sim.self_ns_per_event", "ns", "lower"),
    ("netsim.sim.drops", "count", "lower"),
    ("netsim.sim.retx_pkts", "count", "lower"),
    ("netsim.sim.ecn_marked", "count", "lower"),
    ("netsim.arena.fresh", "count", "lower"),
    ("netsim.arena.recycle_ratio", "ratio", "higher"),
    ("ufab.edge.on_packet_s", "s", "lower"),
    ("ufab.edge.on_packet_calls", "count", "lower"),
    ("ufab.edge.on_timer_s", "s", "lower"),
    ("ufab.edge.on_timer_calls", "count", "lower"),
    ("ufab.edge.on_nic_idle_s", "s", "lower"),
    ("ufab.edge.on_nic_idle_calls", "count", "lower"),
    ("ufab.edge.on_inject_s", "s", "lower"),
    ("ufab.edge.on_inject_calls", "count", "lower"),
    ("ufab.core_agent.on_egress_s", "s", "lower"),
    ("ufab.core_agent.on_egress_calls", "count", "lower"),
    ("ufab.core_agent.on_timer_s", "s", "lower"),
    ("ufab.core_agent.on_timer_calls", "count", "lower"),
    ("baselines.edge.busy_s", "s", "lower"),
    ("baselines.edge.busy_calls", "count", "lower"),
    ("workloads.driver.poll_s", "s", "lower"),
    ("workloads.driver.polls", "count", "lower"),
    ("metrics.recorder.merge_s", "s", "lower"),
    ("topology.build_s", "s", "lower"),
    ("workloads.gen_trace_s", "s", "lower"),
    ("fabric.plan_s", "s", "lower"),
    ("fabric.plan.decisions", "count", "higher"),
    ("experiments.harness.assemble_s", "s", "lower"),
    ("trace.accounted_pct", "%", "higher"),
    // From the hook and the untraced twin beside the traced one.
    ("experiments.cell.ctl_loop_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("experiments.executor.jobs2_speedup", "ratio", "higher"),
    // Simulated results of the checked pass: exact for a fixed seed.
    ("experiments.cell.viol_ms", "ms", "lower"),
    ("experiments.cell.ttg_p99_us", "us", "lower"),
    ("experiments.fig11.dissatisfaction", "ratio", "lower"),
    // Standalone probes: N calls into one public function.
    ("netsim.equeue.ns_per_op", "ns", "lower"),
    ("netsim.arena.ns_per_op", "ns", "lower"),
    ("ufab.edge.tick_ns", "ns", "lower"),
    ("ufab.core_agent.egress_ns", "ns", "lower"),
    ("telemetry.bloom.ns_per_op", "ns", "lower"),
    ("telemetry.wire.codec_ns", "ns", "lower"),
    ("obs.recorder.record_ns", "ns", "lower"),
    ("dse.pareto.points_per_s", "1/s", "higher"),
    ("fabric.plan.decisions_per_s", "1/s", "higher"),
    ("fabricd.resize.ops_per_s", "1/s", "higher"),
    ("fabricd.snapshot.per_s", "1/s", "higher"),
    ("fabricd.restore.per_s", "1/s", "higher"),
];

/// The in-workload metrics of one traced twin run.
///
/// `netsim.sim.self_s` is thread-seconds inside `Runner::run` (wall ×
/// shard workers) not spent in an agent callback or a driver poll: event
/// queue, port service, routing, arena and — with two workers — barrier
/// wait and mailbox exchange, which cannot be told apart from outside.
pub fn from_twin(out: &TwinOut) -> Vec<(&'static str, f64)> {
    let (u, b, spans) = (&out.ufab, &out.baseline, &out.spans);
    let run_s = spans.total_s(twin::SPAN_RUN) * out.threads as f64;
    let self_s = run_s - u.all_seconds() - b.all_seconds();
    let events = out.stats.events as f64;
    let cell_s = spans.total_s(twin::SPAN_CELL);
    vec![
        ("netsim.sim.events", events),
        ("netsim.sim.self_s", self_s),
        ("netsim.sim.self_ns_per_event", self_s * 1e9 / events),
        ("netsim.sim.drops", out.stats.drops as f64),
        ("netsim.sim.retx_pkts", out.stats.retx_pkts as f64),
        ("netsim.sim.ecn_marked", out.stats.ecn_marked as f64),
        ("netsim.arena.fresh", out.arena.fresh as f64),
        (
            "netsim.arena.recycle_ratio",
            out.arena.recycled as f64 / out.arena.allocated as f64,
        ),
        ("ufab.edge.on_packet_s", u.seconds(Cb::EdgePacket)),
        ("ufab.edge.on_packet_calls", u.calls(Cb::EdgePacket) as f64),
        ("ufab.edge.on_timer_s", u.seconds(Cb::EdgeTimer)),
        ("ufab.edge.on_timer_calls", u.calls(Cb::EdgeTimer) as f64),
        ("ufab.edge.on_nic_idle_s", u.seconds(Cb::EdgeNicIdle)),
        (
            "ufab.edge.on_nic_idle_calls",
            u.calls(Cb::EdgeNicIdle) as f64,
        ),
        ("ufab.edge.on_inject_s", u.seconds(Cb::EdgeInject)),
        ("ufab.edge.on_inject_calls", u.calls(Cb::EdgeInject) as f64),
        ("ufab.core_agent.on_egress_s", u.seconds(Cb::SwitchEgress)),
        (
            "ufab.core_agent.on_egress_calls",
            u.calls(Cb::SwitchEgress) as f64,
        ),
        ("ufab.core_agent.on_timer_s", u.seconds(Cb::SwitchTimer)),
        (
            "ufab.core_agent.on_timer_calls",
            u.calls(Cb::SwitchTimer) as f64,
        ),
        ("baselines.edge.busy_s", b.edge_seconds()),
        ("baselines.edge.busy_calls", b.edge_calls() as f64),
        (
            "workloads.driver.poll_s",
            u.seconds(Cb::DriverPoll) + b.seconds(Cb::DriverPoll),
        ),
        (
            "workloads.driver.polls",
            (u.calls(Cb::DriverPoll) + b.calls(Cb::DriverPoll)) as f64,
        ),
        ("metrics.recorder.merge_s", spans.total_s(twin::SPAN_MERGE)),
        ("topology.build_s", spans.total_s(twin::SPAN_TOPO)),
        ("workloads.gen_trace_s", spans.total_s(twin::SPAN_TRACE)),
        ("fabric.plan_s", spans.total_s(twin::SPAN_PLAN)),
        ("fabric.plan.decisions", out.decisions as f64),
        (
            "experiments.harness.assemble_s",
            spans.total_s(twin::SPAN_ASSEMBLE),
        ),
        // Everything but the cell span's own time lies in a layer span,
        // and `Runner::run` splits into callbacks, polls and netsim.
        (
            "trace.accounted_pct",
            100.0 * (1.0 - spans.self_s(twin::SPAN_CELL) / cell_s),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(matches!(*better, "lower" | "higher"));
            assert!(PER_LAYER[..i].iter().all(|(n, _, _)| n != name), "{name}");
        }
    }

    /// `BENCHMARK.json` declares exactly the metrics the code reports.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let decl = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            decl.arr(key)
                .unwrap()
                .iter()
                .map(|m| {
                    let f = |k| m.str(k).unwrap().to_string();
                    (f("name"), f("unit"), f("better"))
                })
                .collect()
        };
        let own = |v: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            v.iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        assert_eq!(listed("end_to_end"), own(&crate::run::END_TO_END));
        let names: Vec<&str> = decl
            .arr("workloads")
            .unwrap()
            .iter()
            .map(|w| w.str("name").unwrap())
            .collect();
        let listed_ws = || crate::suite::WORKLOADS.iter().filter(|w| w.driver);
        let own_names: Vec<&str> = listed_ws().map(|w| w.name).collect();
        assert_eq!(names, own_names);
        for (w, d) in listed_ws().zip(decl.arr("workloads").unwrap()) {
            assert_eq!(d.str("why"), Some(w.why));
        }
    }

    #[test]
    fn a_traced_twin_fills_every_in_workload_metric() {
        let out = twin::run(
            twin::Twin::Churn {
                servers: 64,
                shards: 1,
                enforce: false,
            },
            2,
            true,
        );
        let l = from_twin(&out);
        for (name, v) in &l {
            assert!(PER_LAYER.iter().any(|(n, _, _)| n == name), "{name}");
            assert!(v.is_finite() && *v >= 0.0, "{name} = {v}");
        }
        let get = |k: &str| l.iter().find(|(n, _)| *n == k).unwrap().1;
        assert!(get("trace.accounted_pct") >= 95.0);
        assert!(get("ufab.edge.on_packet_calls") > 100_000.0);
        assert_eq!(get("baselines.edge.busy_calls"), 0.0);
    }
}
