//! Fig 5: utilisation-oriented load balancing endangers guarantees
//! (Case-2, §2.2).
//!
//! The Case-2 graph has exactly three equivalent paths P1–P3. F1–F3 are
//! spread so that subscription and utilisation *disagree*:
//!
//! | path | subscription | utilisation |
//! |------|--------------|-------------|
//! | P1   | 90 % (F1: 9 G guarantee, demand 8 G) | 80 % |
//! | P2   | 80 % (F2: 8 G guarantee, demand 9 G) | 90 % |
//! | P3   | 40 % (F3: 4 G guarantee, unlimited → work conservation) | ~100 % |
//!
//! F4 (3 G guarantee, unlimited demand) joins later. Utilisation-directed
//! Clove steers it onto P1 — the least utilised but most subscribed path —
//! breaking F1's guarantee (and with a 36 μs flowlet gap it oscillates,
//! also breaking F2). μFAB's subscription-aware selection puts F4 on P3,
//! the only path where `C ≥ (Φ+φ)·B_u` holds, and everyone keeps their
//! guarantee.

use super::common::{emit, simulate, Scale, Sim};
use crate::harness::{Runner, SystemKind, SLICE};
use baselines::edge::BaselineCfg;
use metrics::table::Table;
use netsim::{NodeId, PairId, Time, MS, US};
use ufab::FabricSpec;
use workloads::patterns::{BulkDriver, OnOffDriver};

struct Setup {
    topo: topology::Topo,
    fabric: FabricSpec,
    pairs: Vec<PairId>,
    hosts: Vec<NodeId>,
    guarantees: Vec<f64>,
}

fn setup() -> Setup {
    let topo = topology::case2(10);
    let mut fabric = FabricSpec::new(500e6);
    // Tokens: F1 = 18 (9 G), F2 = 16 (8 G), F3 = 8 (4 G), F4 = 6 (3 G).
    let tokens = [18.0, 16.0, 8.0, 6.0];
    let mut pairs = Vec::new();
    let mut hosts = Vec::new();
    for (i, &tok) in tokens.iter().enumerate() {
        let src = topo.hosts[i];
        pairs.push(fabric.add_vf(tok, src, topo.hosts[4 + i]));
        hosts.push(src);
    }
    let guarantees = tokens.iter().map(|t| t * 500e6).collect();
    Setup {
        topo,
        fabric,
        pairs,
        hosts,
        guarantees,
    }
}

fn run_one(
    name: &str,
    system: SystemKind,
    flowlet_gap: Option<Time>,
    scale: &Scale,
    until: Time,
    f4_join: Time,
) -> (Runner, String, Vec<PairId>, Vec<f64>) {
    let s = setup();
    let baseline = flowlet_gap.map(|gap| BaselineCfg {
        flowlet_gap: gap,
        ..BaselineCfg::pwc()
    });
    // F1: 8 G paced demand. F2: 9 G paced. F3: unlimited from t=2 ms.
    // F4: unlimited from f4_join. Staggered joins let the load balancers
    // spread F1–F3 across the three paths first.
    let mut f1 = OnOffDriver::new(vec![(s.hosts[0], s.pairs[0])], 1_000_000 * MS, 8e9, 1 << 40);
    let mut f2 = OnOffDriver::new(vec![(s.hosts[1], s.pairs[1])], 1_000_000 * MS, 9e9, 2 << 40);
    let mut f3 = BulkDriver::new(
        vec![(2 * MS, s.hosts[2], s.pairs[2], 4_000_000_000, 0)],
        3 << 40,
    );
    let mut f4 = BulkDriver::new(
        vec![(f4_join, s.hosts[3], s.pairs[3], 4_000_000_000, 0)],
        4 << 40,
    );
    let sim = Sim {
        label: name.to_string(),
        baseline,
        ..Sim::of(system)
    };
    let (r, epilogue) = simulate(scale, s.topo, s.fabric, sim, |r| {
        // Delay F2's start slightly via a pre-run with only F1, then all.
        r.run(500 * US, SLICE, &mut [&mut f1]);
        r.run(until, SLICE, &mut [&mut f1, &mut f2, &mut f3, &mut f4]);
    });
    (r, epilogue, s.pairs, s.guarantees)
}

/// Run Fig 5 and emit the per-VF rate series plus the guarantee verdicts.
pub fn run(scale: Scale) -> Table {
    let until = if scale.quick { 50 * MS } else { 100 * MS };
    let f4_join = until / 2;
    let mut series = Table::new([
        "variant", "t_ms", "vf1_gbps", "vf2_gbps", "vf3_gbps", "vf4_gbps",
    ]);
    let mut verdict = Table::new([
        "variant",
        "vf",
        "guarantee_gbps",
        "rate_after_join_gbps",
        "guarantee_met",
        "migrations",
    ]);
    let variants: Vec<(&str, SystemKind, Option<Time>)> = vec![
        ("PWC-200us", SystemKind::Pwc, Some(200 * US)),
        ("PWC-36us", SystemKind::Pwc, Some(36 * US)),
        ("uFAB", SystemKind::Ufab, None),
    ];
    for (name, system, gap) in variants {
        let (r, epilogue, pairs, guarantees) = run_one(name, system, gap, &scale, until, f4_join);
        print!("{epilogue}");
        let rec = r.rec.lock().unwrap();
        for b in 0..(until / MS) as usize {
            let rates: Vec<f64> = pairs
                .iter()
                .map(|p| rec.pair_rates.rate_at(&p.raw(), b))
                .collect();
            series.row([
                name.to_string(),
                b.to_string(),
                format!("{:.2}", rates[0] / 1e9),
                format!("{:.2}", rates[1] / 1e9),
                format!("{:.2}", rates[2] / 1e9),
                format!("{:.2}", rates[3] / 1e9),
            ]);
        }
        let migrations = rec.path_migrations;
        // Demands: F1 = 8 G, F2 = 8.55 G (paced 9 G of guarantee 8 G),
        // F3/F4 unlimited. Entitled = min(guarantee, demand).
        let demands = [8e9, 9e9, f64::INFINITY, f64::INFINITY];
        for (i, &p) in pairs.iter().enumerate() {
            let rate = rec.pair_rates.avg_rate(&p.raw(), f4_join + 5 * MS, until);
            let entitled = guarantees[i].min(demands[i]);
            let met = rate >= 0.85 * entitled;
            verdict.row([
                name.to_string(),
                format!("VF-{}", i + 1),
                format!("{:.1}", guarantees[i] / 1e9),
                format!("{:.2}", rate / 1e9),
                met.to_string(),
                migrations.to_string(),
            ]);
        }
    }
    emit("fig5_rates", "Fig 5: Case-2 per-VF rate evolution", &series);
    emit(
        "fig5_verdict",
        "Fig 5: guarantees after F4 joins (expect uFAB all-true)",
        &verdict,
    );
    verdict
}
