//! Reference allocations from Appendix C.
//!
//! μFAB's per-link sharing rule (Eqn 1) is token-proportional; composed
//! over a path via the `min` in §3.3 it converges to the **weighted
//! max-min fair** allocation — the α → ∞ limit of the weighted α-fair
//! family (Appendix C.1, Eqn 5). This module computes that allocation
//! directly (progressive filling / waterfilling, with optional per-flow
//! demand caps), giving the "Ideal" curves of the evaluation and the
//! targets the convergence tests check against.
//!
//! Appendix C.2's stability condition (κ < π/2 with RTT-scaled adaptation)
//! is exercised indirectly: the simulator-level convergence tests in
//! `tests/` drive the actual control loop.

/// One flow in the reference problem.
#[derive(Debug, Clone)]
pub struct TheoryFlow {
    /// Weight (bandwidth tokens φ).
    pub weight: f64,
    /// Link indices the flow traverses.
    pub links: Vec<usize>,
    /// Demand cap in the same unit as capacities (`f64::INFINITY` = elastic).
    pub demand: f64,
}

impl TheoryFlow {
    /// An elastic flow.
    pub fn elastic(weight: f64, links: Vec<usize>) -> Self {
        Self {
            weight,
            links,
            demand: f64::INFINITY,
        }
    }
}

/// Compute the weighted max-min fair allocation with demands.
///
/// Progressive filling: repeatedly find the most constrained link
/// (smallest remaining-capacity per unit of unfrozen weight), freeze the
/// flows it carries at `weight × share`, remove, repeat. Demand-capped
/// flows freeze at their demand as soon as the water level reaches it.
///
/// Capacities and the returned rates share one unit (e.g. bits/sec).
///
/// # Panics
/// Panics if a flow references an out-of-range link or has non-positive
/// weight.
pub fn weighted_max_min(capacities: &[f64], flows: &[TheoryFlow]) -> Vec<f64> {
    // Defensive: a flow listing a link twice must only be charged once.
    let flows: Vec<TheoryFlow> = flows
        .iter()
        .map(|f| {
            let mut links = f.links.clone();
            links.sort_unstable();
            links.dedup();
            TheoryFlow {
                weight: f.weight,
                links,
                demand: f.demand,
            }
        })
        .collect();
    let flows = &flows[..];
    for f in flows {
        assert!(f.weight > 0.0, "non-positive weight");
        for &l in &f.links {
            assert!(l < capacities.len(), "flow references unknown link {l}");
        }
    }
    let n = flows.len();
    let mut rate = vec![0.0f64; n];
    let mut frozen = vec![false; n];
    let mut cap_left: Vec<f64> = capacities.to_vec();

    loop {
        // Water level at which each link saturates, considering only
        // unfrozen flows; also the level at which each demand binds.
        let mut next_level = f64::INFINITY;
        let mut is_demand_event = false;
        let mut event_idx = usize::MAX;

        // Per-link saturation level: cap_left / Σ weights of unfrozen flows.
        for (l, &cl) in cap_left.iter().enumerate() {
            let wsum: f64 = flows
                .iter()
                .enumerate()
                .filter(|(i, f)| !frozen[*i] && f.links.contains(&l))
                .map(|(_, f)| f.weight)
                .sum();
            if wsum > 0.0 {
                let level = cl / wsum;
                if level < next_level {
                    next_level = level;
                    is_demand_event = false;
                    event_idx = l;
                }
            }
        }
        // Per-flow demand level: demand / weight.
        for (i, f) in flows.iter().enumerate() {
            if !frozen[i] && f.demand.is_finite() {
                let level = f.demand / f.weight;
                if level < next_level {
                    next_level = level;
                    is_demand_event = true;
                    event_idx = i;
                }
            }
        }
        if event_idx == usize::MAX || !next_level.is_finite() {
            break; // nothing left to constrain (or no unfrozen flows)
        }

        if is_demand_event {
            let i = event_idx;
            rate[i] = flows[i].demand;
            frozen[i] = true;
            for &l in &flows[i].links {
                cap_left[l] = (cap_left[l] - rate[i]).max(0.0);
            }
        } else {
            let l = event_idx;
            let to_freeze: Vec<usize> = flows
                .iter()
                .enumerate()
                .filter(|(i, f)| !frozen[*i] && f.links.contains(&l))
                .map(|(i, _)| i)
                .collect();
            for i in to_freeze {
                rate[i] = flows[i].weight * next_level;
                frozen[i] = true;
                for &fl in &flows[i].links {
                    cap_left[fl] = (cap_left[fl] - rate[i]).max(0.0);
                }
            }
        }
        if frozen.iter().all(|&f| f) {
            break;
        }
    }
    rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_link_proportional() {
        // Tokens 1:2:5 on a 8 Gbps link (the Fig 11 class mix).
        let rates = weighted_max_min(
            &[8e9],
            &[
                TheoryFlow::elastic(1.0, vec![0]),
                TheoryFlow::elastic(2.0, vec![0]),
                TheoryFlow::elastic(5.0, vec![0]),
            ],
        );
        assert!((rates[0] - 1e9).abs() < 1.0);
        assert!((rates[1] - 2e9).abs() < 1.0);
        assert!((rates[2] - 5e9).abs() < 1.0);
    }

    #[test]
    fn demand_cap_frees_capacity() {
        // Flow 0 wants only 1 Gbps of its 4 Gbps share; flow 1 takes the rest.
        let rates = weighted_max_min(
            &[8e9],
            &[
                TheoryFlow {
                    weight: 1.0,
                    links: vec![0],
                    demand: 1e9,
                },
                TheoryFlow::elastic(1.0, vec![0]),
            ],
        );
        assert!((rates[0] - 1e9).abs() < 1.0);
        assert!((rates[1] - 7e9).abs() < 1.0);
    }

    #[test]
    fn multihop_bottleneck() {
        // Parking lot: flow A spans links 0+1, flows B, C take one each.
        // Equal weights: A is limited by the tighter contention.
        let rates = weighted_max_min(
            &[10e9, 10e9],
            &[
                TheoryFlow::elastic(1.0, vec![0, 1]),
                TheoryFlow::elastic(1.0, vec![0]),
                TheoryFlow::elastic(1.0, vec![1]),
            ],
        );
        // A gets 5 on both links; B and C pick up the slack on their link.
        assert!((rates[0] - 5e9).abs() < 1.0);
        assert!((rates[1] - 5e9).abs() < 1.0);
        assert!((rates[2] - 5e9).abs() < 1.0);
    }

    #[test]
    fn asymmetric_parking_lot() {
        // Link 0 is the scarce one: cap 6 with two flows; link 1 cap 10.
        let rates = weighted_max_min(
            &[6e9, 10e9],
            &[
                TheoryFlow::elastic(1.0, vec![0, 1]),
                TheoryFlow::elastic(2.0, vec![0]),
                TheoryFlow::elastic(1.0, vec![1]),
            ],
        );
        // Link 0: tokens 1+2 share 6G → 2G and 4G.
        assert!((rates[0] - 2e9).abs() < 1.0);
        assert!((rates[1] - 4e9).abs() < 1.0);
        // Link 1 leftover for flow 2: 10 − 2 = 8.
        assert!((rates[2] - 8e9).abs() < 1.0);
    }

    #[test]
    fn conservation_and_feasibility() {
        // Random-ish mesh: verify no link over capacity and work conservation
        // on the bottleneck.
        let caps = [5e9, 7e9, 3e9];
        let flows = vec![
            TheoryFlow::elastic(1.0, vec![0, 1]),
            TheoryFlow::elastic(3.0, vec![1, 2]),
            TheoryFlow::elastic(2.0, vec![0]),
            TheoryFlow::elastic(1.0, vec![2]),
        ];
        let rates = weighted_max_min(&caps, &flows);
        for (l, &cap) in caps.iter().enumerate() {
            let load: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(f, _)| f.links.contains(&l))
                .map(|(_, r)| *r)
                .sum();
            assert!(load <= cap * (1.0 + 1e-9), "link {l} overloaded: {load}");
        }
        // Every flow hits at least one saturated link (max-min property).
        for (i, f) in flows.iter().enumerate() {
            let saturated = f.links.iter().any(|&l| {
                let load: f64 = flows
                    .iter()
                    .zip(&rates)
                    .filter(|(g, _)| g.links.contains(&l))
                    .map(|(_, r)| *r)
                    .sum();
                load >= caps[l] * (1.0 - 1e-9)
            });
            assert!(saturated, "flow {i} not bottlenecked anywhere");
        }
    }

    #[test]
    fn empty_and_degenerate() {
        assert!(weighted_max_min(&[1e9], &[]).is_empty());
        let r = weighted_max_min(&[0.0], &[TheoryFlow::elastic(1.0, vec![0])]);
        assert_eq!(r[0], 0.0);
    }
}
