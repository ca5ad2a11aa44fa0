//! Standalone probes: N calls into one public function, outside any
//! simulation, so a layer's cost can be read without the cell around it.
//!
//! Each probe is called once and thrown away (cold caches, lazy
//! allocation), then called again and timed.

use crate::suite;
use bench::micro;
use experiments::scenarios::{churn, ops};
use std::hint::black_box;
use std::time::Instant;
use telemetry::wire::{WireHop, WireProbe};
use telemetry::CountingBloom;

/// Seconds of the second of two calls to `f`.
fn second_call_s<R>(mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

fn ns_per_op<R>(ops: u64, f: impl FnMut() -> R) -> f64 {
    second_call_s(f) * 1e9 / ops as f64
}

fn per_s<R>(ops: u64, f: impl FnMut() -> R) -> f64 {
    ops as f64 / second_call_s(f)
}

/// Every probe, as `(per-layer metric name, value)`.
pub fn run_all(seed: u64) -> Vec<(&'static str, f64)> {
    let ops_seed = suite::ops_seed(seed);
    vec![
        // The four `bench::micro` loops.
        (
            "netsim.equeue.ns_per_op",
            ns_per_op(2_000_000, || micro::equeue_churn(2_000_000)),
        ),
        (
            "netsim.arena.ns_per_op",
            ns_per_op(2_000_000, || micro::arena_churn(2_000_000)),
        ),
        (
            "ufab.edge.tick_ns",
            ns_per_op(20_000, || micro::edge_tick(20_000)),
        ),
        (
            "ufab.core_agent.egress_ns",
            ns_per_op(2_000_000, || micro::core_tick(2_000_000)),
        ),
        ("telemetry.bloom.ns_per_op", ns_per_op(1_000_000, bloom)),
        ("telemetry.wire.codec_ns", ns_per_op(300_000, wire_codec)),
        ("obs.recorder.record_ns", ns_per_op(2_000_000, obs_record)),
        ("dse.pareto.points_per_s", per_s(PARETO_POINTS, pareto)),
        ("fabric.plan.decisions_per_s", {
            let mut decisions = 0;
            let s = second_call_s(|| decisions = churn::admission_bench(seed, 60_000));
            decisions as f64 / s
        }),
        (
            "fabricd.resize.ops_per_s",
            per_s(200_000, || ops::resize_bench(ops_seed, 200_000)),
        ),
        (
            "fabricd.snapshot.per_s",
            per_s(4_000, || ops::snapshot_bench(ops_seed, 4_000)),
        ),
        (
            "fabricd.restore.per_s",
            per_s(1_500, || ops::restore_bench(ops_seed, 1_500)),
        ),
    ]
}

/// One insert + remove on the counting Bloom filter μFAB-C keeps, at its
/// default 20 KiB.
fn bloom() {
    let mut cb = CountingBloom::new(20 * 1024);
    for k in 0..1_000_000u64 {
        cb.insert(black_box(k));
        cb.remove(black_box(k));
    }
    black_box(&cb);
}

/// Encode + decode of a five-hop Appendix-G probe.
fn wire_codec() {
    let probe = WireProbe {
        ptype: 1,
        phi: 12345,
        hops: (0..5)
            .map(|i| WireHop {
                w_units: 100 * i,
                phi: 20 + i,
                tx_units: 4000 + i,
                q_units: 12 * i,
                speed: 1,
            })
            .collect(),
    };
    for _ in 0..300_000 {
        let bytes = black_box(&probe).encode();
        black_box(WireProbe::decode(black_box(&bytes)).expect("own encoding decodes"));
    }
}

/// One record site with the flight recorder on.
fn obs_record() {
    let h = obs::ObsHandle::recording(4096);
    for i in 0..2_000_000u64 {
        h.rec(obs::Category::Enqueue, black_box(i), || {
            obs::Event::Custom {
                label: "bench",
                a: 1,
                b: 2,
            }
        });
    }
}

const PARETO_POINTS: u64 = 2_000;

/// The Pareto extractor on 2 000 synthetic four-objective points
/// (xorshift64, as `simbench dse` draws them).
fn pareto() {
    let mut s: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut draw = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let pts: Vec<Vec<f64>> = (0..PARETO_POINTS)
        .map(|_| (0..4).map(|_| draw()).collect())
        .collect();
    black_box(dse::pareto_front(&pts));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_second_call_is_the_timed_one() {
        let mut calls = 0;
        let s = second_call_s(|| {
            calls += 1;
            if calls == 1 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
        });
        assert_eq!(calls, 2);
        assert!(s < 0.02, "{s}");
    }

    #[test]
    fn small_loops_run() {
        bloom();
        pareto();
        assert!(ns_per_op(1_000, || micro::equeue_churn(1_000)) > 0.0);
    }
}
