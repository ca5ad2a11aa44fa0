//! The Elastic Compute Service scenario (Fig 13).
//!
//! Two tenants share the fabric: **Memcached** (latency-sensitive, small
//! closed-loop GETs whose object sizes follow the empirical KV
//! distribution, mean ≈ 2 KB) and **MongoDB** (bandwidth-hungry clients
//! continuously fetching 500 KB documents). The paper reports Memcached's
//! QPS and query completion time under the MongoDB background.
//!
//! Both applications are instances of [`RpcClientDriver`]: closed-loop
//! clients keeping `concurrency` requests outstanding against randomly
//! chosen servers; the request travels on the client→server pair and the
//! response auto-returns on the server→client pair, inheriting the
//! request's submission time so the completion's FCT *is* the QCT.

use crate::dists::Empirical;
use crate::driver::{Driver, FlowIds, WorkloadPort};
use metrics::recorder::Completion;
use metrics::Percentiles;
use netsim::{NodeId, PairId, Time};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use ufab::endpoint::{AppMsg, REPLY_FLAG};

/// Completion tag of Memcached queries.
pub const TAG_MEMCACHED: u32 = 21;
/// Completion tag of MongoDB fetches.
pub const TAG_MONGODB: u32 = 22;

/// How response sizes are drawn.
#[derive(Debug, Clone)]
pub enum ReplySize {
    /// Fixed bytes (MongoDB: 500 KB).
    Fixed(u64),
    /// Sampled per request (Memcached: KV distribution).
    Dist(Empirical),
}

/// One closed-loop RPC client population.
pub struct RpcClientDriver {
    clients: Vec<ClientState>,
    concurrency: usize,
    req_size: u64,
    reply: ReplySize,
    tag: u32,
    rng: SmallRng,
    flows: FlowIds,
    inflight: HashMap<u64, usize>,
    /// End-to-end query completion times (ns).
    pub qct: Percentiles,
    /// Completed queries.
    pub completed: u64,
    /// Stop issuing new requests after this time.
    pub until: Time,
}

struct ClientState {
    host: NodeId,
    server_pairs: Vec<PairId>,
    outstanding: usize,
}

impl RpcClientDriver {
    /// `clients` = (client_host, pairs to each reachable server). Each
    /// request is `req_size` bytes and returns a [`ReplySize`] response.
    pub fn new(
        clients: Vec<(NodeId, Vec<PairId>)>,
        concurrency: usize,
        req_size: u64,
        reply: ReplySize,
        tag: u32,
        seed: u64,
        flow_base: u64,
    ) -> Self {
        assert!(concurrency > 0);
        assert!(clients.iter().all(|(_, p)| !p.is_empty()));
        Self {
            clients: clients
                .into_iter()
                .map(|(host, server_pairs)| ClientState {
                    host,
                    server_pairs,
                    outstanding: 0,
                })
                .collect(),
            concurrency,
            req_size,
            reply,
            tag,
            rng: SmallRng::seed_from_u64(seed),
            flows: FlowIds::new(flow_base),
            inflight: HashMap::new(),
            qct: Percentiles::new(),
            completed: 0,
            until: Time::MAX,
        }
    }
}

impl Driver for RpcClientDriver {
    fn poll(&mut self, port: &mut dyn WorkloadPort, completions: &[Completion]) {
        for c in completions {
            if c.tag != self.tag || c.flow & REPLY_FLAG == 0 {
                continue;
            }
            let request_flow = c.flow & !REPLY_FLAG;
            if let Some(client) = self.inflight.remove(&request_flow) {
                self.clients[client].outstanding -= 1;
                self.qct.add(c.fct() as f64);
                self.completed += 1;
            }
        }
        let now = port.now();
        if now >= self.until {
            return;
        }
        for (ci, client) in self.clients.iter_mut().enumerate() {
            while client.outstanding < self.concurrency {
                let pair = client.server_pairs[self.rng.gen_range(0..client.server_pairs.len())];
                let reply_size = match &self.reply {
                    ReplySize::Fixed(b) => *b,
                    ReplySize::Dist(d) => d.sample(&mut self.rng).max(64.0) as u64,
                };
                let flow = self.flows.next();
                self.inflight.insert(flow, ci);
                client.outstanding += 1;
                port.inject(
                    client.host,
                    AppMsg::request(flow, pair, self.req_size, reply_size, self.tag),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::MockPort;

    fn driver() -> RpcClientDriver {
        RpcClientDriver::new(
            vec![
                (NodeId(0), vec![PairId(0), PairId(1)]),
                (NodeId(1), vec![PairId(2)]),
            ],
            2,
            64,
            ReplySize::Fixed(500_000),
            TAG_MONGODB,
            1,
            1000,
        )
    }

    #[test]
    fn keeps_concurrency_outstanding() {
        let mut d = driver();
        let mut port = MockPort::default();
        d.poll(&mut port, &[]);
        // 2 clients × concurrency 2.
        assert_eq!(port.injected.len(), 4);
        // No new requests until something completes.
        d.poll(&mut port, &[]);
        assert_eq!(port.injected.len(), 4);
    }

    #[test]
    fn completion_reissues_and_measures_qct() {
        let mut d = driver();
        let mut port = MockPort::default();
        d.poll(&mut port, &[]);
        let first = &port.injected[0].1;
        let done = Completion {
            flow: first.flow.raw() | REPLY_FLAG,
            pair: 99,
            bytes: 500_000,
            start: 0,
            end: 2_000_000,
            tag: TAG_MONGODB,
        };
        port.now = 2_000_000;
        d.poll(&mut port, std::slice::from_ref(&done));
        assert_eq!(d.completed, 1);
        assert_eq!(d.qct.count(), 1);
        assert_eq!(port.injected.len(), 5);
    }

    #[test]
    fn ignores_foreign_and_request_completions() {
        let mut d = driver();
        let mut port = MockPort::default();
        d.poll(&mut port, &[]);
        let foreign = Completion {
            flow: 1 | REPLY_FLAG,
            pair: 0,
            bytes: 1,
            start: 0,
            end: 1,
            tag: TAG_MEMCACHED, // other app
        };
        let request_not_reply = Completion {
            flow: port.injected[0].1.flow.raw(),
            pair: 0,
            bytes: 64,
            start: 0,
            end: 1,
            tag: TAG_MONGODB,
        };
        d.poll(&mut port, &[foreign, request_not_reply]);
        assert_eq!(d.completed, 0);
    }

    #[test]
    fn until_stops_new_requests() {
        let mut d = driver();
        d.until = 100;
        let mut port = MockPort::default();
        port.now = 200;
        d.poll(&mut port, &[]);
        assert!(port.injected.is_empty());
    }
}
