//! Property-based tests for the control-plane wire format, the
//! snapshot/restore path, and the lifecycle against its reference
//! model (`fabric::plan`).

use fabric::{AdmissionCfg, Policy, TenantReq};
use fabricd::{FabricOp, FabricReply, FabricService};
use netsim::builder::LinkSpec;
use netsim::{MS, US};
use proptest::prelude::*;
use std::sync::Arc;
use topology::{leaf_spine, Topo};

fn topo() -> Arc<Topo> {
    Arc::new(leaf_spine(
        3,
        2,
        4,
        LinkSpec::gbps(10, 1000),
        LinkSpec::gbps(40, 1000),
        1500,
    ))
}

const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_.";

fn text(idx: &[usize], alphabet: &[u8]) -> String {
    idx.iter()
        .map(|&i| alphabet[i % alphabet.len()] as char)
        .collect()
}

/// Build one of the six op variants from a flat tuple of field values;
/// `kind` selects the variant, the other fields are reinterpreted as
/// needed so every variant sees arbitrary values.
fn make_op(
    kind: usize,
    name: String,
    n_vms: usize,
    tokens: f64,
    lifetime: u64,
    id: u32,
) -> FabricOp {
    match kind % 6 {
        0 => FabricOp::Admit {
            name,
            n_vms,
            tokens_per_vm: tokens,
            lifetime,
        },
        1 => FabricOp::Depart { tenant: id },
        2 => FabricOp::Resize {
            tenant: id,
            new_tokens_per_vm: tokens,
        },
        3 => FabricOp::Cordon { node: id },
        4 => FabricOp::Uncordon { node: id },
        _ => FabricOp::Drain { node: id },
    }
}

proptest! {
    /// Every op decodes back from its canonical wire form, exactly —
    /// including the f64 token fields (Rust's `Display` is shortest
    /// round-trip).
    #[test]
    fn op_wire_round_trips(
        kind in 0usize..6,
        name_idx in prop::collection::vec(0usize..1000, 1..12),
        n_vms in 1usize..16,
        tokens in 0.1f64..64.0,
        lifetime in 1u64..100_000_000,
        id in 0u32..10_000,
    ) {
        let op = make_op(kind, text(&name_idx, NAME_CHARS), n_vms, tokens, lifetime, id);
        let line = op.encode();
        let back = FabricOp::decode(&line).unwrap();
        prop_assert_eq!(&back, &op);
        prop_assert_eq!(back.encode(), line);
    }

    /// Snapshot → restore round-trips byte-exactly and passes the
    /// conservation audit for any randomized tenant mix, including
    /// mixes with departures, resizes, and rejections in the history.
    #[test]
    fn snapshot_restore_survives_random_tenant_mixes(
        admits in prop::collection::vec(
            (1usize..6, (5u64..80, 1u64..40, 1u64..5000)),
            1..12,
        ),
        resizes in prop::collection::vec((0u32..12, 5u64..80), 0..4),
        cut in 1u64..60,
    ) {
        let t = topo();
        let mut s = FabricService::new(t.clone(), AdmissionCfg::default());
        let mut now = 0;
        for (n_vms, (tokens_tenths, gap_us, life_us)) in admits {
            s.submit(now, FabricOp::Admit {
                name: format!("t{now}"),
                n_vms,
                tokens_per_vm: tokens_tenths as f64 / 10.0,
                lifetime: life_us * US,
            });
            now += gap_us * US;
        }
        for (tenant, tokens_tenths) in resizes {
            s.submit(now, FabricOp::Resize {
                tenant,
                new_tokens_per_vm: tokens_tenths as f64 / 10.0,
            });
            now += 5 * US;
        }
        // Advance partway: some ops applied, some may still be queued,
        // some tenants departed or mid-reclaim.
        s.advance(cut * US);
        s.audit().unwrap();

        let snap = s.snapshot();
        let mut back = FabricService::restore(t, &snap).unwrap();
        prop_assert_eq!(back.snapshot(), snap);
        prop_assert_eq!(back.digest(), s.digest());

        // Both replay the remaining queue identically.
        let (a, b) = (s.advance(now + 10 * MS), back.advance(now + 10 * MS));
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.reply.encode(), y.reply.encode());
        }
        prop_assert_eq!(back.digest(), s.digest());
        back.audit().unwrap();
        s.audit().unwrap();
    }

    /// `fabric::plan` is the service's reference model: the stateless
    /// pre-pass and a live service fed the same requests as admit ops
    /// agree on every decision instant, host list and rejection reason;
    /// and a second service fed the plan through `admit_planned` holds
    /// an equal ledger and placer after every decision, rolled-back
    /// partial placements included. The traces
    /// mix sizes, tie arrivals (so pacing queues them), carry a class no
    /// access link admits and one no host set can hold, and have
    /// lifetimes short enough to depart mid-trace.
    #[test]
    fn plan_is_the_services_reference_model(
        reqs in prop::collection::vec(
            (0u64..60, 0usize..10, 1usize..6, 5u64..80, 30u64..3000),
            1..40,
        ),
        load_spread in any::<bool>(),
    ) {
        let t = topo();
        let cfg = AdmissionCfg {
            policy: if load_spread { Policy::LoadSpread } else { Policy::FirstFit },
            max_vms_per_host: 2,
            ..AdmissionCfg::default()
        };
        let mut arrival = 0;
        let reqs: Vec<TenantReq> = reqs
            .into_iter()
            .enumerate()
            .map(|(i, (gap_us, class, n_vms, tokens_tenths, life_us))| {
                arrival += gap_us * US;
                let (n_vms, tokens_per_vm) = match class {
                    0 => (n_vms, 20.0), // 10 G hose on a 10 G access link
                    1 => (t.hosts.len() + 1, 0.5), // more VMs than hosts
                    _ => (n_vms, tokens_tenths as f64 / 10.0),
                };
                TenantReq {
                    name: format!("r{i}"),
                    n_vms,
                    tokens_per_vm,
                    arrival,
                    lifetime: life_us * US,
                }
            })
            .collect();
        let plan = fabric::plan(&t, &cfg, &reqs);
        prop_assert_eq!(plan.decision_latency_ns.len(), reqs.len());

        let mut live = FabricService::new(t.clone(), cfg);
        let mut replay = FabricService::new(t.clone(), cfg);
        for r in &reqs {
            live.submit(r.arrival, FabricOp::Admit {
                name: r.name.clone(),
                n_vms: r.n_vms,
                tokens_per_vm: r.tokens_per_vm,
                lifetime: r.lifetime,
            });
        }
        let (mut admitted, mut rejected) = (plan.admitted.iter(), plan.rejected.iter());
        let (mut next_adm, mut next_rej) = (admitted.next(), rejected.next());
        for (k, r) in reqs.iter().enumerate() {
            let t_dec = r.arrival + plan.decision_latency_ns[k];
            let out = live.advance(t_dec);
            prop_assert_eq!(out.len(), 1, "one decision per paced slot");
            prop_assert_eq!(out[0].applied, t_dec);
            match next_adm.filter(|p| p.req == k) {
                Some(p) => {
                    prop_assert_eq!((p.decision, p.depart), (t_dec, t_dec + r.lifetime));
                    let id = replay.admit_planned(p);
                    let hosts = p.hosts.iter().map(|h| h.raw()).collect();
                    prop_assert_eq!(&out[0].reply, &FabricReply::Admitted { tenant: id, hosts });
                    next_adm = admitted.next();
                }
                None => {
                    let rej = next_rej.expect("a request is admitted or rejected");
                    prop_assert_eq!((rej.req, rej.at), (k, t_dec));
                    prop_assert_eq!(&out[0].reply, &FabricReply::Rejected { reason: rej.reason });
                    replay.advance(t_dec);
                    next_rej = rejected.next();
                }
            }
            // The replay never saw a rejected request, and the live
            // ledger rolled its partial placement back exactly.
            prop_assert!(live.ledger() == replay.ledger(), "ledgers differ at request {}", k);
            prop_assert!(live.placer() == replay.placer(), "placers differ at request {}", k);
        }
        prop_assert!(next_adm.is_none() && next_rej.is_none());

        for s in [&mut live, &mut replay] {
            s.audit().unwrap();
            s.advance(arrival + 10 * MS);
            prop_assert_eq!(s.count(fabric::TenantState::Reclaimed), plan.admitted.len());
            prop_assert!(s.ledger().utilization().abs() < 1e-12);
            s.audit().unwrap();
        }
    }
}
