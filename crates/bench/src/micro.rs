//! Hot-path microbenchmarks for the event loop.
//!
//! Each function isolates one inner loop the end-to-end cells spend
//! their time in — calendar-queue churn, packet-box recycling, the
//! μFAB-E per-RTT tick, the μFAB-C egress pipeline — and runs it for a
//! caller-chosen iteration count, returning the number of operations
//! performed. `ufabbench`'s standalone probes (`ufabbench/src/probes.rs`)
//! time them, so a regression in any single hot path shows up in
//! isolation instead of being smeared across a whole scenario run.
//!
//! The loops are deterministic (fixed seeds, no wall-clock reads inside
//! the measured region) and feed results through [`std::hint::black_box`]
//! so the optimiser cannot delete the work being measured.

use netsim::agent::{EdgeAgent, Effects, NicView, SwitchAgent, SwitchCtx};
use netsim::agent::{EdgeCtx, PortView};
use netsim::packet::{DataInfo, Packet, PacketArena, PacketKind};
use netsim::{EventQueue, FlowId, NodeId, PairId, PortNo, Route, TenantId, MS};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use telemetry::ProbeFrame;
use topology::{dumbbell, Topo};
use ufab::{AppMsg, FabricSpec, UfabConfig, UfabCore, UfabEdge};

/// A minimal data packet for allocation benchmarks — all-`Copy` payload,
/// so the only heap traffic is the box itself.
fn data_packet(i: u64) -> Packet {
    Packet {
        src: NodeId(0),
        dst: NodeId(1),
        pair: PairId((i % 512) as u32),
        tenant: TenantId((i % 8) as u32),
        size: 1500,
        kind: PacketKind::Data(DataInfo {
            seq: i,
            flow: FlowId(i % 64),
            payload: 1460,
            tag: 0,
            retx: false,
            msg_bytes: 1_000_000,
            flow_start: 0,
            reply_bytes: 0,
        }),
        route: Route::new(),
        hop: 0,
        max_util: 0.0,
        sent_at: i,
    }
}

/// Calendar-queue churn: a standing population of 4096 events, each
/// iteration pops the earliest and pushes a replacement a pseudo-random
/// delta (1–4096 ns) into the future. The population sits in ~8 ring
/// buckets, so a bucket holds ≈500 entries as it becomes active — a
/// *dense* probe of the sort and the same-bucket insert, an order of
/// magnitude above the 14–59-entry runs measured on the benchmark cells
/// (`repro <cell> --trace` prints theirs; this module's test holds the
/// probe's). Returns the number of pop+push cycles.
pub fn equeue_churn(iters: u64) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::default();
    let mut lcg = 0x2545F4914F6CDD1Du64;
    let mut seq = 0u64;
    for i in 0..4096u64 {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        q.push(lcg >> 48, seq, i);
        seq += 1;
    }
    let mut done = 0u64;
    for _ in 0..iters {
        let (t, _s, item) = q.pop().expect("standing population never drains");
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        q.push(t + 1 + (lcg >> 52), seq, black_box(item));
        seq += 1;
        done += 1;
    }
    black_box(q.len());
    done
}

/// Arena-backed packet churn: a 64-deep in-flight window, each iteration
/// allocates one packet box from the arena and recycles the oldest —
/// steady state touches the allocator zero times.
pub fn arena_churn(iters: u64) -> u64 {
    let mut arena = PacketArena::default();
    let mut window: VecDeque<Box<Packet>> = VecDeque::with_capacity(64);
    for i in 0..64 {
        window.push_back(arena.alloc(data_packet(i)));
    }
    for i in 64..64 + iters {
        let old = window.pop_front().expect("window never empties");
        black_box(old.size);
        arena.recycle(old);
        window.push_back(arena.alloc(data_packet(i)));
    }
    let stats = arena.stats();
    assert_eq!(stats.fresh, 64, "steady state must recycle, not allocate");
    iters
}

/// μFAB-E per-RTT tick: a standalone edge agent with eight active pairs
/// (SoA hot-state walk, token refresh, probe scheduling, WFQ pump),
/// driven through its own re-armed timer exactly as the simulator would.
/// Returns the number of tick calls.
pub fn edge_tick(iters: u64) -> u64 {
    let n = 8usize;
    let topo = dumbbell(n, 10, 10);
    let host = topo.hosts[0];
    let mut fabric = FabricSpec::new(500e6);
    let mut pairs = Vec::new();
    for i in 0..n {
        let t = fabric.add_tenant(&format!("t{i}"), 1.0 + i as f64);
        let a = fabric.add_vm(t, host);
        let b = fabric.add_vm(t, topo.hosts[n + i]);
        pairs.push(fabric.add_pair(a, b));
    }
    let topo: Arc<Topo> = Arc::new(topo);
    let mut agent = UfabEdge::new(
        UfabConfig::default(),
        Arc::clone(&topo),
        Arc::new(fabric),
        metrics::recorder::shared(MS),
        host,
    );
    let mut rng = SmallRng::seed_from_u64(7);
    let mut arena = PacketArena::default();
    let mut fx = Effects::new();
    let nic = NicView {
        queue_pkts: 0,
        cap_bps: 10_000_000_000,
    };
    let mut now = 0u64;
    {
        let mut ctx = EdgeCtx::standalone(now, nic, &mut rng, &mut fx, &mut arena);
        agent.on_start(&mut ctx);
        for (i, &p) in pairs.iter().enumerate() {
            // Backlog far beyond the horizon: every pair stays active for
            // the whole measured region.
            agent.submit(&mut ctx, AppMsg::oneway(i as u64, p, 1 << 30, 0));
        }
    }
    for b in fx.take_sends() {
        arena.recycle(b);
    }
    // Replay the timer flow the simulator would: keep the earliest armed
    // timer, fire it, collect the re-arm.
    let mut timers = fx.take_timers();
    let mut done = 0u64;
    for _ in 0..iters {
        timers.sort_unstable();
        let (at, kind) = timers.remove(0);
        now = now.max(at);
        {
            let mut ctx = EdgeCtx::standalone(now, nic, &mut rng, &mut fx, &mut arena);
            agent.on_timer(&mut ctx, kind);
        }
        for b in fx.take_sends() {
            arena.recycle(b);
        }
        timers.extend(fx.take_timers());
        assert!(!timers.is_empty(), "tick must re-arm its timer");
        done += 1;
    }
    black_box(now);
    done
}

/// μFAB-C egress pipeline: probe stamping against the register file and
/// Bloom filter with 256 live pairs across four ports, a cleanup-timer
/// sweep folded in every 1024 packets. Returns packets processed.
pub fn core_tick(iters: u64) -> u64 {
    let mut core = UfabCore::new(4096, MS);
    let mut fx = Effects::new();
    let mut done = 0u64;
    for i in 0..iters {
        let pair = (i % 256) as u32;
        let mut frame = ProbeFrame::probe(pair, i, 1e6 + pair as f64, 1500.0, i);
        frame.registering = i < 256;
        let mut pkt = Packet {
            src: NodeId(0),
            dst: NodeId(1),
            pair: PairId(pair),
            tenant: TenantId(pair % 8),
            size: 90,
            kind: PacketKind::Probe(frame),
            route: Route::new(),
            hop: 0,
            max_util: 0.0,
            sent_at: i,
        };
        let view = PortView {
            port: PortNo((i % 4) as u16),
            q_bytes: 3000,
            tx_bps: 5e9,
            cap_bps: 10_000_000_000,
        };
        {
            let mut ctx = SwitchCtx::standalone(i, NodeId(9), &mut fx);
            core.on_egress(&mut ctx, view, &mut pkt);
            if i % 1024 == 1023 {
                core.on_timer(&mut ctx, 0);
            }
        }
        black_box(&pkt);
        done += 1;
    }
    fx.take_timers();
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::QueueStats;

    /// The [`equeue_churn`] loop once more, returning the queue's own
    /// traffic counters (the timed loop above stays as the benchmark
    /// froze it).
    fn equeue_churn_stats(iters: u64) -> QueueStats {
        let mut q: EventQueue<u64> = EventQueue::default();
        let mut lcg = 0x2545F4914F6CDD1Du64;
        let mut step = || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg
        };
        for seq in 0..4096u64 {
            q.push(step() >> 48, seq, seq);
        }
        for seq in 4096..4096 + iters {
            let (t, _s, item) = q.pop().expect("standing population never drains");
            q.push(t + 1 + (step() >> 52), seq, item);
        }
        q.stats()
    }

    /// Every probe loop runs and counts what it says. With the run-length
    /// assert this is all the retired `microbench-smoke` CI job checked:
    /// the loops execute, and the queue probe is the dense one its ns/op
    /// is read as.
    #[test]
    fn all_microbenches_run_and_count() {
        assert_eq!(equeue_churn(1_000), 1_000);
        let qs = equeue_churn_stats(1_000);
        assert!(qs.rotations > 0 && qs.run_len_max > 100, "dense by design");
        assert_eq!(arena_churn(1_000), 1_000);
        assert_eq!(edge_tick(50), 50);
        assert_eq!(core_tick(2_000), 2_000);
    }
}
