//! What is measured, not what records it: the repo's one benchmark is
//! `ufabbench/`, which times the loops in [`micro`] and [`scenario`] and
//! stamps its reports with [`report`]. `tests/guards.rs` holds one exact
//! guard (tier-1) and two release-only timing guards.

pub mod micro;
pub mod report;

/// The testbed permutation `ufabbench` and `tests/guards.rs` both run.
pub mod scenario {
    use experiments::harness::{Runner, SystemKind, SLICE};
    use netsim::{NodeId, PairId, Time, MS};
    use topology::TestbedCfg;
    use ufab::FabricSpec;
    use workloads::driver::Driver;
    use workloads::patterns::BulkDriver;

    /// Drive the Fig-11-style cross-pod permutation on the 10 G testbed
    /// (three guarantee classes per source host, staggered joins, bulk
    /// demand) until `until`, returning the number of simulator events
    /// processed. `ufabbench`'s smoke form of `fig11_testbed`.
    pub fn run_testbed_permutation(seed: u64, until: Time) -> u64 {
        run_testbed_permutation_inner(seed, until, false)
    }

    /// The same workload with the chaos engine *armed but idle*: an empty
    /// [`netsim::FaultPlan`] is applied, so every transmitted packet takes
    /// the runtime's lookup branch without any fault ever firing. An
    /// empty plan must not perturb the simulation: `tests/guards.rs`
    /// holds the event count equal to [`run_testbed_permutation`]'s.
    pub fn run_testbed_permutation_chaos_idle(seed: u64, until: Time) -> u64 {
        run_testbed_permutation_inner(seed, until, true)
    }

    fn run_testbed_permutation_inner(seed: u64, until: Time, arm_chaos: bool) -> u64 {
        let topo = topology::testbed(TestbedCfg::default());
        let mut fabric = FabricSpec::new(500e6);
        let classes = [(1u64, 2.0), (2, 4.0), (5, 10.0)];
        let mut jobs: Vec<(Time, NodeId, PairId, u64, u32)> = Vec::new();
        let mut k = 0;
        for hi in 0..4 {
            for &(gbps, tokens) in &classes {
                let t = fabric.add_tenant(&format!("{gbps}G-h{hi}"), tokens);
                let src = topo.hosts[hi];
                let dst = topo.hosts[4 + hi];
                let v0 = fabric.add_vm(t, src);
                let v1 = fabric.add_vm(t, dst);
                let pair = fabric.add_pair(v0, v1);
                jobs.push((MS + k as Time * MS, src, pair, 8_000_000_000, 0));
                k += 1;
            }
        }
        let mut r = Runner::new(topo, fabric, SystemKind::Ufab, seed, None, MS);
        if arm_chaos {
            r.sim.apply_chaos(&netsim::FaultPlan::new(seed));
        }
        let mut driver = BulkDriver::new(jobs, 0);
        let mut drivers: [&mut dyn Driver; 1] = [&mut driver];
        r.run(until, SLICE, &mut drivers);
        r.sim.stats().events
    }
}
