//! Fig 4: RTT under various incast degrees (Case-1, §2.2).
//!
//! N flows of distinct VFs (500 Mbps guarantees each) start simultaneously
//! towards one host, N ∈ {2, 4, …, 14}. μFAB bounds the tail RTT as the
//! degree grows; PicNIC′+WCC+Clove's tail inflates with N because greedy
//! rate evolution lets the aggregate burst scale with the flow count.

use super::common::{emit, incast_driver, incast_on_testbed, simulate, us, Scale, Sim};
use crate::executor::{run_jobs, Job};
use crate::harness::{SystemKind, SLICE};
use metrics::table::Table;
use netsim::MS;
use topology::TestbedCfg;

/// Run the sweep and emit the table.
pub fn run(scale: Scale) -> Table {
    let degrees: Vec<usize> = if scale.quick {
        vec![2, 6, 10, 14]
    } else {
        vec![2, 4, 6, 8, 10, 12, 14]
    };
    let mut table = Table::new([
        "system",
        "incast_N",
        "median_us",
        "p99_us",
        "p99_9_us",
        "max_us",
        "base_rtt_us",
    ]);
    let mut jobs: Vec<Job<(String, Option<[String; 7]>)>> = Vec::new();
    for system in [SystemKind::Pwc, SystemKind::Ufab] {
        for &n in &degrees {
            jobs.push(Job::new(
                format!("fig4:{}:{n}", system.label()),
                move || {
                    let (topo, fabric, srcs, pairs, _dst) =
                        incast_on_testbed(n, TestbedCfg::default(), 1.0, 500e6);
                    let base = topo.max_base_rtt();
                    let until = if scale.quick { 30 * MS } else { 60 * MS };
                    let mut incast = incast_driver(&srcs, &pairs, 20_000_000, MS);
                    let (r, epilogue) = simulate(&scale, topo, fabric, Sim::of(system), |r| {
                        r.run(until, SLICE, &mut [&mut incast])
                    });
                    let rec = r.rec.lock().unwrap();
                    let rtts = &rec.rtts;
                    let row = if rtts.is_empty() {
                        None
                    } else {
                        Some([
                            system.label().to_string(),
                            n.to_string(),
                            us(rtts.median().unwrap()),
                            us(rtts.percentile(99.0).unwrap()),
                            us(rtts.percentile(99.9).unwrap()),
                            us(rtts.max().unwrap()),
                            us(base as f64),
                        ])
                    };
                    (epilogue, row)
                },
            ));
        }
    }
    for (epilogue, row) in run_jobs(jobs) {
        print!("{epilogue}");
        if let Some(row) = row {
            table.row(row);
        }
    }
    emit("fig4_incast_rtt", "Fig 4: RTT vs incast degree", &table);
    // The CSV is for plotting; name the headline shape.
    println!("shape: uFAB tail should stay ≈flat in N; PWC tail should grow with N");
    table
}
