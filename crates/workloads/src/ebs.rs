//! The Elastic Block Storage scenario (Fig 14).
//!
//! Three cooperating task classes, each treated as its own "tenant"
//! needing isolated network resources (§2.1):
//!
//! * **SA** (Storage Agent): sends a 64 KB write to a random Block Agent
//!   every 640 μs.
//! * **BA** (Block Agent): after receiving the whole message, replicates
//!   it to three distinct Chunk Servers.
//! * **GC** (Garbage Collection): every 1 ms reads a block from a random
//!   Chunk Server (small request, bulk reply) and writes the compacted
//!   data back.
//!
//! Task completion times (Fig 14): the SA TCT is the agent→BA transfer,
//! the BA TCT is the replication fan-out, and the **total** TCT runs from
//! the SA send to the last replica landing. The paper's latency bound at
//! 10 G is 2 ms average / 10 ms tail.

use crate::driver::{Driver, FlowIds, WorkloadPort};
use metrics::recorder::Completion;
use metrics::Percentiles;
use netsim::{NodeId, PairId, Time};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use ufab::endpoint::{AppMsg, REPLY_FLAG};

/// Tag: SA → BA writes.
pub(crate) const TAG_SA: u32 = 31;
/// Tag: BA → CS replication.
pub(crate) const TAG_BA: u32 = 32;
/// Tag: GC read requests/replies.
pub(crate) const TAG_GC_READ: u32 = 33;
/// Tag: GC compacted write-backs.
pub(crate) const TAG_GC_WRITE: u32 = 34;

/// Static wiring of the EBS deployment.
pub struct EbsSpec {
    /// Storage agents: `(host, pairs to every BA)`.
    pub sa: Vec<(NodeId, Vec<PairId>)>,
    /// Block agents: `(host, pairs to every CS)`, indexed in the same
    /// order the SA pair lists reference them.
    pub ba: Vec<(NodeId, Vec<PairId>)>,
    /// GC agents: `(host, read-request pairs to every CS — with reverse
    /// registered for the bulk reply —, write pairs to every CS)`.
    pub gc: Vec<(NodeId, Vec<PairId>, Vec<PairId>)>,
}

// Sizes and periods of the EBS model. Calibrated so the testbed's
// overall utilisation sits near the paper's reported ~27 % (Fig 2a)
// after the 3× replication amplification: SA 0.8 G/agent, BA 2.4 G/host,
// GC ≈ 0.8 G/agent.

/// SA write size: 64 KB.
const BLOCK_BYTES: u64 = 64 * 1024;
/// SA period: 640 μs.
const SA_PERIOD: Time = 640 * netsim::US;
/// Replication fan-out: 3.
const REPLICAS: usize = 3;
/// GC period: 1 ms.
const GC_PERIOD: Time = netsim::MS;
/// GC read size: 64 KB.
const GC_READ_BYTES: u64 = 64 * 1024;
/// GC write-back size: 32 KB (compacted).
const GC_WRITE_BYTES: u64 = 32 * 1024;

struct Task {
    start: Time,
    sa_done: Option<Time>,
    replicas_left: usize,
    last_replica: Time,
}

/// The EBS workload driver.
pub struct EbsDriver {
    spec: EbsSpec,
    rng: SmallRng,
    flows: FlowIds,
    next_sa: Vec<Time>,
    next_gc: Vec<Time>,
    sa_flow_task: HashMap<u64, usize>,
    ba_flow_task: HashMap<u64, usize>,
    tasks: Vec<Task>,
    gc_reads_inflight: HashMap<u64, usize>,
    /// SA task completion times.
    pub sa_tct: Percentiles,
    /// BA replication completion times.
    pub ba_tct: Percentiles,
    /// End-to-end (SA start → last replica) completion times.
    pub total_tct: Percentiles,
    /// GC read completion times.
    pub gc_tct: Percentiles,
    /// Stop issuing new work after this time.
    pub until: Time,
}

impl EbsDriver {
    /// Create the driver.
    pub fn new(spec: EbsSpec, seed: u64, flow_base: u64) -> Self {
        assert!(!spec.sa.is_empty() && !spec.ba.is_empty());
        for (_, pairs) in &spec.sa {
            assert_eq!(pairs.len(), spec.ba.len(), "SA must reach every BA");
        }
        for (_, pairs) in &spec.ba {
            assert!(
                pairs.len() >= REPLICAS,
                "BA needs at least {REPLICAS} CS pairs"
            );
        }
        let n_sa = spec.sa.len();
        let n_gc = spec.gc.len();
        Self {
            spec,
            rng: SmallRng::seed_from_u64(seed),
            flows: FlowIds::new(flow_base),
            next_sa: vec![0; n_sa],
            next_gc: vec![0; n_gc],
            sa_flow_task: HashMap::new(),
            ba_flow_task: HashMap::new(),
            tasks: Vec::new(),
            gc_reads_inflight: HashMap::new(),
            sa_tct: Percentiles::new(),
            ba_tct: Percentiles::new(),
            total_tct: Percentiles::new(),
            gc_tct: Percentiles::new(),
            until: Time::MAX,
        }
    }

    /// Number of fully-replicated tasks.
    pub fn tasks_completed(&self) -> usize {
        self.total_tct.count()
    }
}

impl Driver for EbsDriver {
    fn poll(&mut self, port: &mut dyn WorkloadPort, completions: &[Completion]) {
        let now = port.now();
        // --- React to completions -----------------------------------
        for c in completions {
            match c.tag {
                TAG_SA => {
                    let Some(task_id) = self.sa_flow_task.remove(&c.flow) else {
                        continue;
                    };
                    self.sa_tct.add(c.fct() as f64);
                    self.tasks[task_id].sa_done = Some(c.end);
                    // The BA now replicates to `replicas` distinct CSs.
                    let ba_idx = self.rng.gen_range(0..self.spec.ba.len());
                    let (ba_host, cs_pairs) =
                        (self.spec.ba[ba_idx].0, self.spec.ba[ba_idx].1.clone());
                    let mut order: Vec<usize> = (0..cs_pairs.len()).collect();
                    for i in (1..order.len()).rev() {
                        let j = self.rng.gen_range(0..=i);
                        order.swap(i, j);
                    }
                    for &cs in order.iter().take(REPLICAS) {
                        let flow = self.flows.next();
                        self.ba_flow_task.insert(flow, task_id);
                        port.inject(
                            ba_host,
                            AppMsg::oneway(flow, cs_pairs[cs], BLOCK_BYTES, TAG_BA),
                        );
                    }
                }
                TAG_BA => {
                    let Some(task_id) = self.ba_flow_task.remove(&c.flow) else {
                        continue;
                    };
                    let t = &mut self.tasks[task_id];
                    t.replicas_left -= 1;
                    t.last_replica = t.last_replica.max(c.end);
                    if t.replicas_left == 0 {
                        let sa_done = t.sa_done.unwrap_or(t.start);
                        self.ba_tct
                            .add(t.last_replica.saturating_sub(sa_done) as f64);
                        self.total_tct
                            .add(t.last_replica.saturating_sub(t.start) as f64);
                    }
                }
                TAG_GC_READ if c.flow & REPLY_FLAG != 0 => {
                    let req = c.flow & !REPLY_FLAG;
                    let Some(gc_idx) = self.gc_reads_inflight.remove(&req) else {
                        continue;
                    };
                    self.gc_tct.add(c.fct() as f64);
                    // Write the compacted data back to a random CS.
                    let (host, _, write_pairs) = &self.spec.gc[gc_idx];
                    let pair = write_pairs[self.rng.gen_range(0..write_pairs.len())];
                    let flow = self.flows.next();
                    port.inject(
                        *host,
                        AppMsg::oneway(flow, pair, GC_WRITE_BYTES, TAG_GC_WRITE),
                    );
                }
                _ => {}
            }
        }
        if now >= self.until {
            return;
        }
        // --- Periodic generation -------------------------------------
        for i in 0..self.spec.sa.len() {
            while self.next_sa[i] <= now {
                let (host, ba_pairs) = (&self.spec.sa[i].0, &self.spec.sa[i].1);
                let pair = ba_pairs[self.rng.gen_range(0..ba_pairs.len())];
                let flow = self.flows.next();
                let task_id = self.tasks.len();
                self.tasks.push(Task {
                    start: self.next_sa[i],
                    sa_done: None,
                    replicas_left: REPLICAS,
                    last_replica: 0,
                });
                self.sa_flow_task.insert(flow, task_id);
                port.inject(*host, AppMsg::oneway(flow, pair, BLOCK_BYTES, TAG_SA));
                self.next_sa[i] += SA_PERIOD;
            }
        }
        for i in 0..self.spec.gc.len() {
            while self.next_gc[i] <= now {
                let (host, read_pairs, _) = &self.spec.gc[i];
                let pair = read_pairs[self.rng.gen_range(0..read_pairs.len())];
                let flow = self.flows.next();
                self.gc_reads_inflight.insert(flow, i);
                port.inject(
                    *host,
                    AppMsg::request(flow, pair, 256, GC_READ_BYTES, TAG_GC_READ),
                );
                self.next_gc[i] += GC_PERIOD;
            }
        }
    }

    fn next_wake(&self) -> Time {
        self.next_sa
            .iter()
            .chain(self.next_gc.iter())
            .copied()
            .min()
            .unwrap_or(Time::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::MockPort;
    use netsim::US;

    fn spec() -> EbsSpec {
        EbsSpec {
            sa: vec![(NodeId(0), vec![PairId(0), PairId(1)])],
            ba: vec![
                (
                    NodeId(4),
                    vec![PairId(10), PairId(11), PairId(12), PairId(13)],
                ),
                (
                    NodeId(5),
                    vec![PairId(14), PairId(15), PairId(16), PairId(17)],
                ),
            ],
            gc: vec![(NodeId(6), vec![PairId(20)], vec![PairId(21)])],
        }
    }

    #[test]
    fn sa_emits_periodically() {
        let mut d = EbsDriver::new(spec(), 1, 0);
        let mut port = MockPort::default();
        port.now = 0;
        d.poll(&mut port, &[]);
        let sa0: usize = port
            .injected
            .iter()
            .filter(|(_, m)| m.tag == TAG_SA)
            .count();
        assert_eq!(sa0, 1);
        port.now = 1920 * US; // 3 periods later
        d.poll(&mut port, &[]);
        let sa: usize = port
            .injected
            .iter()
            .filter(|(_, m)| m.tag == TAG_SA)
            .count();
        assert_eq!(sa, 4);
    }

    #[test]
    fn sa_completion_triggers_three_replicas() {
        let mut d = EbsDriver::new(spec(), 1, 0);
        let mut port = MockPort::default();
        d.poll(&mut port, &[]);
        let sa_flow = port
            .injected
            .iter()
            .find(|(_, m)| m.tag == TAG_SA)
            .unwrap()
            .1
            .flow
            .raw();
        let done = Completion {
            flow: sa_flow,
            pair: 0,
            bytes: 64 * 1024,
            start: 0,
            end: 500_000,
            tag: TAG_SA,
        };
        port.now = 500_000;
        d.poll(&mut port, std::slice::from_ref(&done));
        let replicas: Vec<&AppMsg> = port
            .injected
            .iter()
            .filter(|(_, m)| m.tag == TAG_BA)
            .map(|(_, m)| m)
            .collect();
        assert_eq!(replicas.len(), 3);
        // Three *distinct* CS pairs.
        let mut pairs: Vec<u32> = replicas.iter().map(|m| m.pair.raw()).collect();
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs.len(), 3);
        assert_eq!(d.sa_tct.count(), 1);

        // Completing all replicas closes the task.
        let ba_completions: Vec<Completion> = replicas
            .iter()
            .enumerate()
            .map(|(i, m)| Completion {
                flow: m.flow.raw(),
                pair: m.pair.raw(),
                bytes: m.size,
                start: 500_000,
                end: 900_000 + i as u64,
                tag: TAG_BA,
            })
            .collect();
        port.now = 1_000_000;
        d.poll(&mut port, &ba_completions);
        assert_eq!(d.tasks_completed(), 1);
        assert_eq!(d.total_tct.max(), Some(900_002.0));
    }

    #[test]
    fn gc_read_then_writeback() {
        let mut d = EbsDriver::new(spec(), 1, 0);
        let mut port = MockPort::default();
        d.poll(&mut port, &[]);
        let gc_req = port
            .injected
            .iter()
            .find(|(_, m)| m.tag == TAG_GC_READ)
            .unwrap()
            .1
            .clone();
        assert_eq!(gc_req.reply_size, 64 * 1024);
        let reply_done = Completion {
            flow: gc_req.flow.raw() | REPLY_FLAG,
            pair: 999,
            bytes: 64 * 1024,
            start: 0,
            end: 700_000,
            tag: TAG_GC_READ,
        };
        port.now = 700_000;
        d.poll(&mut port, std::slice::from_ref(&reply_done));
        assert_eq!(d.gc_tct.count(), 1);
        let wb = port
            .injected
            .iter()
            .find(|(_, m)| m.tag == TAG_GC_WRITE)
            .unwrap();
        assert_eq!(wb.1.size, 32 * 1024);
        assert_eq!(wb.1.pair, PairId(21));
    }

    #[test]
    fn until_stops_generation() {
        let mut d = EbsDriver::new(spec(), 1, 0);
        d.until = 1;
        let mut port = MockPort::default();
        port.now = 10_000_000;
        d.poll(&mut port, &[]);
        assert!(port.injected.is_empty());
    }
}
