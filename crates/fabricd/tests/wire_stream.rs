//! The wire stream of a fixed op script is pinned.
//!
//! The service digest is free to fold whatever describes the stream;
//! this test pins what a client sees instead: each applied op's
//! decision time, its wire form and its reply's wire form, folded in
//! order into a test-side FNV digest. A change to how the service
//! digests ops must leave this pin where it is.

use fabric::AdmissionCfg;
use fabricd::{FabricOp, FabricReply, FabricService};
use netsim::builder::LinkSpec;
use netsim::{Time, MS};
use obs::DetHash;
use std::sync::Arc;
use topology::leaf_spine;

/// Each batch is submitted at its instant and applied by the next one.
/// One VM per host on 2 leaves × 4 hosts of 10G (9G admissible each).
const SCRIPT: &[(Time, &[&str])] = &[
    (
        0,
        &[
            "admit a 2 2.5 50000000",
            // 20 tokens × 500M = 10G on one access link: no capacity.
            "admit huge 1 20 50000000",
            "depart 99",
        ],
    ),
    (
        MS,
        &[
            // Grow 1.25G → 2.125G, then a grow to 9.5G that no access link
            // admits, then a shrink below the start.
            "resize 0 4.25",
            "resize 0 19",
            "resize 0 0.75",
            "resize 0 -1",
        ],
    ),
    (2 * MS, &["cordon 7", "uncordon 7", "uncordon 7", "drain 3"]),
    (
        3 * MS,
        &[
            // The five free hosts, then one VM too many.
            "admit wall 5 1 50000000",
            "admit extra 1 1 50000000",
            // Tenant 0's VMs have nowhere left to go.
            "drain 4",
            "depart 1",
            "depart 1",
        ],
    ),
];

#[test]
fn wire_stream_of_a_fixed_script_is_pinned() {
    let topo = Arc::new(leaf_spine(
        2,
        2,
        4,
        LinkSpec::gbps(10, 1000),
        LinkSpec::gbps(10, 1000),
        1500,
    ));
    let cfg = AdmissionCfg {
        max_vms_per_host: 1,
        ..AdmissionCfg::default()
    };
    let mut s = FabricService::new(topo, cfg);
    let mut h = DetHash::new();
    let mut kinds = [0usize; 10];
    let mut n = 0;
    for &(at, lines) in SCRIPT {
        for l in lines {
            s.submit(at, FabricOp::decode(l).unwrap());
        }
        for a in s.advance(at + MS - 1) {
            h.fold_u64(a.applied);
            h.fold_bytes(a.op.encode().as_bytes());
            h.fold_bytes(a.reply.encode().as_bytes());
            kinds[kind(&a.reply)] += 1;
            n += 1;
        }
    }
    s.audit().unwrap();
    // Every reply variant shows up, the two refusals included.
    assert!(kinds.iter().all(|&k| k > 0), "{kinds:?}");
    assert_eq!((h.digest(), n), (0xf84e_ec90_c238_3d7a, 16));
}

fn kind(r: &FabricReply) -> usize {
    match r {
        FabricReply::Admitted { .. } => 0,
        FabricReply::Rejected { .. } => 1,
        FabricReply::Departed { .. } => 2,
        FabricReply::Resized { .. } => 3,
        FabricReply::ResizeDenied { .. } => 4,
        FabricReply::Cordoned { .. } => 5,
        FabricReply::Uncordoned { .. } => 6,
        FabricReply::Drained { .. } => 7,
        FabricReply::DrainFailed { .. } => 8,
        FabricReply::Error { .. } => 9,
    }
}
