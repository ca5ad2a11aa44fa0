//! Property tests for the calendar event queue: model-checked against a
//! plain sorted order over `(time, seq)`.
//!
//! The queue's contract (relied on by the simulator's determinism
//! digest): pops come out earliest-time first, ties broken FIFO by
//! sequence number, across all three storage tiers (sorted active run,
//! calendar ring, far-future heap) and any interleaving of pushes,
//! pops, conditional pops and peeks.

use netsim::{EventQueue, Time};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Time offsets spanning all tiers: same-bucket (< 512 ns), in-ring
/// (< ~1 ms horizon), and far-future (multi-ms). The vendored proptest
/// has no `prop_oneof`, so the tier is itself a sampled value.
fn offset() -> impl Strategy<Value = u64> {
    (0u8..3, 0u64..19_000_000).prop_map(|(tier, v)| match tier {
        0 => v % 512,
        1 => v % 1_000_000,
        _ => 1_000_000 + v,
    })
}

proptest! {
    /// Push everything, then drain: output is sorted by (time, seq).
    #[test]
    fn drains_in_time_seq_order(times in prop::collection::vec(offset(), 1..200)) {
        let mut q = EventQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            q.push(t as Time, seq as u64, seq);
        }
        let mut prev: Option<(Time, u64)> = None;
        let mut n = 0;
        while let Some((t, seq, item)) = q.pop() {
            prop_assert_eq!(seq, item as u64);
            if let Some((pt, ps)) = prev {
                prop_assert!((pt, ps) < (t, seq), "out of order: ({pt},{ps}) then ({t},{seq})");
            }
            prev = Some((t, seq));
            n += 1;
        }
        prop_assert_eq!(n, times.len());
    }

    /// Interleaved pushes, pops, `pop_if`s and peeks match a reference
    /// binary heap exactly — including pushes that land behind the
    /// cursor after a `peek_time` fast-forwarded it past `clock` — and
    /// `len()`/`iter_items()` agree with the model after every op.
    #[test]
    fn matches_reference_heap(ops in prop::collection::vec((0u8..7, offset()), 1..300)) {
        let mut q = EventQueue::new();
        let mut model: BinaryHeap<Reverse<(Time, u64)>> = BinaryHeap::new();
        let mut clock: Time = 0;
        let mut seq = 0u64;
        for (k, dt) in ops {
            match k {
                0..=3 => {
                    // Schedule relative to the last pop, as the simulator
                    // does; the queue itself accepts any time.
                    let t = clock + dt as Time;
                    q.push(t, seq, seq);
                    model.push(Reverse((t, seq)));
                    seq += 1;
                }
                4 => {
                    let got = q.pop().map(|(t, s, _)| (t, s));
                    prop_assert_eq!(got, model.pop().map(|Reverse(p)| p));
                    clock = got.map_or(clock, |(t, _)| t);
                }
                5 => {
                    // Random predicate on time: accept the head only when
                    // it is due within `dt` of the clock.
                    let limit = clock + dt as Time;
                    let got = q.pop_if(|t, _| t <= limit).map(|(t, s, _)| (t, s));
                    let want = match model.peek() {
                        Some(&Reverse((t, _))) if t <= limit => model.pop().map(|Reverse(p)| p),
                        _ => None,
                    };
                    prop_assert_eq!(got, want);
                    clock = got.map_or(clock, |(t, _)| t);
                }
                _ => {
                    // The peek moves the cursor ahead of `clock`; later
                    // pushes at `clock + small` land behind it.
                    prop_assert_eq!(q.peek_time(), model.peek().map(|&Reverse((t, _))| t));
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.iter_items().count(), model.len());
            // The buffer pool's own bound: one buffer per bucket that was
            // ever non-empty at once, plus the run's, none above the largest.
            let st = q.stats();
            prop_assert!(q.held_capacity() as u64 <= (st.bufs_out_max + 1) * st.buf_cap_max);
        }
        // Drain the remainder.
        loop {
            let got = q.pop().map(|(t, s, _)| (t, s));
            let want = model.pop().map(|Reverse(p)| p);
            prop_assert_eq!(got, want);
            let Some((t, _)) = got else { break };
            clock = t;
        }
        // Every entry reached the sorted run exactly once.
        let st = q.stats();
        prop_assert_eq!(st.run_len_sum + st.same_bucket_inserts, seq);
        // A lap of the ring over idle buckets costs no memory. (The last
        // pop came from the current bucket, so one bucket short of a span
        // ahead of it is the ring's far end; the first lap may still
        // allocate the one buffer its single entry travels in.)
        let mut lap = |q: &mut EventQueue<u64>| {
            let t = clock + (2047 << 9);
            q.push(t, seq, seq);
            assert_eq!(q.pop(), Some((t, seq, seq)));
            (clock, seq) = (t, seq + 1);
            q.held_capacity()
        };
        let held = lap(&mut q);
        prop_assert_eq!(lap(&mut q), held);
        prop_assert!(q.stats().empty_rotations - st.empty_rotations >= 2 * 2046);
    }

    /// peek_time always reports the time the next pop returns.
    #[test]
    fn peek_agrees_with_pop(times in prop::collection::vec(offset(), 1..100)) {
        let mut q = EventQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            q.push(t as Time, seq as u64, ());
        }
        while let Some(pt) = q.peek_time() {
            let (t, _, _) = q.pop().expect("peek implies non-empty");
            prop_assert_eq!(pt, t);
        }
        prop_assert!(q.pop().is_none());
    }
}

/// Bucket rollover at exact multiples of the ring horizon: times that
/// alias to the same bucket index on different laps must not be mixed.
#[test]
fn ring_lap_aliasing() {
    let mut q = EventQueue::new();
    // Same bucket index, three different laps, pushed in reverse order.
    let lap = 512 * 2048 as Time; // width × buckets
    q.push(2 * lap + 7, 0, "lap2");
    q.push(lap + 7, 1, "lap1");
    q.push(7, 2, "lap0");
    assert_eq!(q.pop().map(|(_, _, v)| v), Some("lap0"));
    assert_eq!(q.pop().map(|(_, _, v)| v), Some("lap1"));
    assert_eq!(q.pop().map(|(_, _, v)| v), Some("lap2"));
    assert!(q.pop().is_none());
}

/// FIFO tie-break survives crossing from the far heap into the ring.
#[test]
fn far_future_ties_stay_fifo() {
    let mut q = EventQueue::new();
    let t = 50_000_000 as Time; // far beyond the ring horizon
    for seq in 0..100u64 {
        q.push(t, seq, seq);
    }
    for want in 0..100u64 {
        let (pt, seq, item) = q.pop().expect("items remain");
        assert_eq!(pt, t);
        assert_eq!(seq, want);
        assert_eq!(item, want);
    }
}

/// A burst at one timestamp, with same-timestamp pushes between the
/// pops: FIFO by `seq` must hold while the run is being drained (each
/// new entry sorts *behind* every older one still in the run).
#[test]
fn same_timestamp_burst_stays_fifo_while_draining() {
    let mut q = EventQueue::new();
    let t = 5_000 as Time;
    let mut seq = 0u64;
    for _ in 0..300 {
        q.push(t, seq, seq);
        seq += 1;
    }
    let mut want = 0u64;
    while let Some((pt, s, item)) = q.pop() {
        assert_eq!((pt, s, item), (t, want, want));
        want += 1;
        // Each of the first 300 pops schedules another event at `now`.
        if seq < 600 {
            q.push(t, seq, seq);
            seq += 1;
        }
    }
    assert_eq!(want, 600);
    let st = q.stats();
    assert_eq!(st.run_len_max, 300);
    assert_eq!(st.same_bucket_inserts, 300);
}

/// A far-heap entry that ties in time with ring entries of larger
/// `seq` pops first once it has migrated under the horizon.
#[test]
fn far_entry_ties_with_later_ring_entries() {
    let mut q = EventQueue::new();
    let t = 1_500_000 as Time; // beyond the ~1.05 ms horizon at time 0
    q.push(t, 0, "far");
    q.push(10, 1, "near");
    assert_eq!(q.stats().far_pushes, 1);
    // Walk the cursor forward until `t` is under the horizon but not
    // yet current, then tie with it from the ring side.
    q.push(1_000_000, 2, "step");
    assert_eq!(q.pop().map(|e| e.2), Some("near"));
    assert_eq!(q.pop().map(|e| e.2), Some("step"));
    assert_eq!(q.stats().far_migrations, 1);
    q.push(t, 3, "ring-a");
    q.push(t, 4, "ring-b");
    assert_eq!(q.stats().far_pushes, 1, "the ties went to the ring");
    let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| (e.1, e.2)).collect();
    assert_eq!(order, vec![(0, "far"), (3, "ring-a"), (4, "ring-b")]);
}

/// A push behind the cursor after `peek_time` fast-forwarded into a
/// non-empty run joins that run at the right place (its back).
#[test]
fn push_behind_cursor_into_live_run() {
    let mut q = EventQueue::new();
    let t = 900_000 as Time;
    for seq in 0..4u64 {
        q.push(t + seq, seq, seq);
    }
    // The cursor walks ~1750 empty buckets to the run at `t`.
    assert_eq!(q.peek_time(), Some(t));
    assert!(q.stats().empty_rotations > 1_000);
    // `now` is still far behind: schedule there, and between entries.
    q.push(100, 4, 4);
    q.push(t + 1, 5, 5);
    q.push(50, 6, 6);
    assert_eq!(q.stats().same_bucket_inserts, 3);
    assert_eq!(q.peek_time(), Some(50));
    let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.1).collect();
    assert_eq!(order, vec![6, 4, 0, 1, 5, 2, 3]);
}
