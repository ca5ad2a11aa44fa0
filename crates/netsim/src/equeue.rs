//! The event queue: a bucketed calendar queue with a heap fallback.
//!
//! The simulator's hot loop is dominated by queue churn: every packet
//! arrival schedules a TxDone and another arrival within a few
//! microseconds of `now`. A global `BinaryHeap` pays `O(log n)` in
//! comparisons *and* cache misses per operation with `n` in the tens of
//! thousands on large fabrics. This queue exploits the near-monotone
//! structure of simulated time instead:
//!
//! * A ring of `NB` buckets, each `width` nanoseconds wide, covers the
//!   near future `[bucket_start, bucket_start + NB·width)`. Pushes into
//!   that window are an index computation and a `Vec::push`; ring
//!   buckets are never ordered.
//! * Only buckets that hold entries hold memory. An idle bucket is a
//!   `Vec` with no allocation; the first push into it checks a buffer
//!   out of a LIFO pool (`spare`) — the one retired most recently, so
//!   the one still in cache — and the rotation that drains the bucket
//!   sends a buffer back. The pool has no cap and never shrinks: it
//!   holds what the busiest moment needed, one buffer per bucket that
//!   was non-empty at once plus one for the run ([`QueueStats`] counts
//!   both), not one worst-burst buffer per ring slot.
//! * The *current* bucket is a sorted run (`active`): when the cursor
//!   reaches a non-empty bucket that bucket's buffer *becomes* the run
//!   (no copy), its entries are sorted **once**, descending by
//!   `(time, seq)`, and every pop is `Vec::pop` off the back. A push
//!   that lands in the current bucket (handlers scheduling at `now`),
//!   or behind it after a peek ahead, is placed by binary search and
//!   `Vec::insert`. Measured runs are short — 14–59 entries at pop time
//!   on the benchmark cells, see [`QueueStats`] — so the insert's
//!   `memmove` is a few hundred bytes.
//! * Events beyond the ring's horizon (long timers, scheduled link
//!   faults) overflow into a conventional heap (`far`) and migrate into
//!   the ring lazily as it rotates past them.
//!
//! Ordering contract (identical to the `BinaryHeap` it replaces):
//! [`EventQueue::pop`] always returns the entry with the smallest
//! `(time, seq)`; callers allocate `seq` monotonically, so ties in time
//! break in insertion (FIFO) order and the schedule is deterministic.

use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Log2 of the bucket width in nanoseconds (512 ns): about half a
/// 1500 B serialization time at 10 Gbps, so consecutive packet events
/// land in the current or next few buckets.
const WIDTH_SHIFT: u32 = 9;
/// Number of ring buckets (must be a power of two). With 512 ns
/// buckets the ring covers ~1 ms — beyond every per-packet delay and
/// most transport timers; only coarse timers hit the far heap.
const N_BUCKETS: usize = 2048;

struct Entry<T> {
    time: Time,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.time, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    // Reversed, earliest `(time, seq)` greatest: the far `BinaryHeap`
    // is a max-heap, and the active run sorts latest-first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// Traffic counters of one [`EventQueue`], bumped per cursor move, tier
/// decision or buffer growth and never per pop. Every entry reaches the
/// sorted run exactly once, so on a drained queue `run_len_sum +
/// same_bucket_inserts` equals the number of entries ever pushed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Cursor moves: one-bucket rotations plus fast-forwards to the
    /// far heap's head.
    pub rotations: u64,
    /// Cursor moves that found nothing to run.
    pub empty_rotations: u64,
    /// Sum over cursor moves of the run length as it became active.
    pub run_len_sum: u64,
    /// Longest run as it became active.
    pub run_len_max: u64,
    /// Pushes placed straight into the sorted run (current bucket, or
    /// behind the cursor after a peek ahead).
    pub same_bucket_inserts: u64,
    /// Pushes beyond the ring horizon.
    pub far_pushes: u64,
    /// Far-heap entries moved under the horizon.
    pub far_migrations: u64,
    /// Most ring buckets holding a buffer at once (the sorted run holds
    /// one more): bumped when a bucket needs one and the pool is empty,
    /// which is exactly when more are out than ever before.
    pub bufs_out_max: u64,
    /// Largest capacity a bucket buffer grew to, in entries; bumped
    /// when a buffer grows, never per push or pop.
    pub buf_cap_max: u64,
}

/// Calendar queue of `(time, seq, item)` entries (see module docs).
pub struct EventQueue<T> {
    /// Ring buckets for `[bucket_start + width, horizon)`; unsorted.
    /// A bucket owns a buffer exactly while it holds entries.
    ring: Vec<Vec<Entry<T>>>,
    /// Ring index of the current bucket.
    cur: usize,
    /// Start time of the current bucket (multiple of `width`).
    bucket_start: Time,
    /// Entries of the current bucket (and any pushed behind it), sorted
    /// descending by `(time, seq)`: the next entry to pop is `last()`.
    active: Vec<Entry<T>>,
    /// Drained bucket buffers, most recently retired last (LIFO).
    spare: Vec<Vec<Entry<T>>>,
    /// Entries at or beyond the horizon.
    far: BinaryHeap<Entry<T>>,
    /// Entries waiting in `ring` (excludes `active` and `far`).
    in_ring: usize,
    stats: QueueStats,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue anchored at time 0.
    pub fn new() -> Self {
        Self {
            ring: (0..N_BUCKETS).map(|_| Vec::new()).collect(),
            cur: 0,
            bucket_start: 0,
            active: Vec::new(),
            spare: Vec::new(),
            far: BinaryHeap::new(),
            in_ring: 0,
            stats: QueueStats::default(),
        }
    }

    /// Total queued entries.
    pub fn len(&self) -> usize {
        self.active.len() + self.in_ring + self.far.len()
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Traffic counters since construction.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    #[inline]
    fn width() -> Time {
        1 << WIDTH_SHIFT
    }

    /// Time the ring covers. Tier decisions compare an entry's distance
    /// from `bucket_start` with this, never an absolute horizon, which
    /// would overflow within one span of `Time::MAX`.
    #[inline]
    fn span() -> Time {
        (N_BUCKETS as Time) << WIDTH_SHIFT
    }

    /// Capacity held over ring, sorted run and pool, in entries.
    #[doc(hidden)]
    pub fn held_capacity(&self) -> usize {
        let bufs = self.ring.iter().chain(&self.spare);
        self.active.capacity() + bufs.map(Vec::capacity).sum::<usize>()
    }

    /// Room for one more entry in `buf`; growth is where the largest
    /// capacity is noted.
    #[inline]
    fn reserve_one(buf: &mut Vec<Entry<T>>, stats: &mut QueueStats) {
        if buf.len() == buf.capacity() {
            buf.reserve(1);
            stats.buf_cap_max = stats.buf_cap_max.max(buf.capacity() as u64);
        }
    }

    /// Queue `item` at `time`; `seq` must be unique and monotonically
    /// assigned by the caller (it breaks equal-time ties FIFO).
    ///
    /// Times earlier than the queue's current bucket are legal (the
    /// simulator clamps to `now`, which can trail the bucket cursor
    /// after a peek rotated it to a later ring bucket) and join the
    /// current sorted run.
    #[inline]
    pub fn push(&mut self, time: Time, seq: u64, item: T) {
        let e = Entry { time, seq, item };
        let ahead = time.saturating_sub(self.bucket_start);
        if ahead < Self::width() {
            // Current bucket (or the past, after a peek ahead):
            // binary-search the descending run for its place.
            let at = self.active.partition_point(|x| x.key() > (time, seq));
            Self::reserve_one(&mut self.active, &mut self.stats);
            self.active.insert(at, e);
            self.stats.same_bucket_inserts += 1;
        } else if ahead < Self::span() {
            self.push_ring(e);
        } else {
            self.far.push(e);
            self.stats.far_pushes += 1;
        }
    }

    #[inline]
    fn push_ring(&mut self, e: Entry<T>) {
        let offset = ((e.time - self.bucket_start) >> WIDTH_SHIFT) as usize;
        let bucket = &mut self.ring[(self.cur + offset) & (N_BUCKETS - 1)];
        if bucket.capacity() == 0 {
            // Idle bucket: check out the most recently retired buffer.
            match self.spare.pop() {
                Some(buf) => *bucket = buf,
                None => self.stats.bufs_out_max += 1,
            }
        }
        Self::reserve_one(bucket, &mut self.stats);
        bucket.push(e);
        self.in_ring += 1;
    }

    /// Earliest `(time)` in the queue, rotating the cursor to the ring
    /// bucket that holds it (cheap; does not remove anything).
    #[inline]
    pub fn peek_time(&mut self) -> Option<Time> {
        self.ensure_active(false);
        self.head().map(|e| e.time)
    }

    /// The next entry to pop, after `ensure_active`: an empty run then
    /// means an empty ring, and the head is the far heap's.
    #[inline]
    fn head(&self) -> Option<&Entry<T>> {
        self.active.last().or_else(|| self.far.peek())
    }

    /// Remove and return the entry with the smallest `(time, seq)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, u64, T)> {
        self.ensure_active(true);
        self.active.pop().map(|e| (e.time, e.seq, e.item))
    }

    /// Remove and return the earliest entry only if `pred(time, item)`
    /// accepts it. The entry offered to `pred` is always the one `pop`
    /// would return next, so callers can drain a run of consecutive
    /// same-timestamp entries (delivery batching) without perturbing
    /// the global `(time, seq)` order.
    #[inline]
    pub fn pop_if(&mut self, pred: impl FnOnce(Time, &T) -> bool) -> Option<(Time, u64, T)> {
        self.ensure_active(false);
        let head = self.head()?;
        if !pred(head.time, &head.item) {
            return None;
        }
        self.pop()
    }

    /// Visit every queued item in arbitrary order (O(len); accounting
    /// and diagnostics only — never the hot path).
    pub fn iter_items(&self) -> impl Iterator<Item = &T> {
        self.active
            .iter()
            .map(|e| &e.item)
            .chain(self.ring.iter().flatten().map(|e| &e.item))
            .chain(self.far.iter().map(|e| &e.item))
    }

    #[inline]
    fn ensure_active(&mut self, jump: bool) {
        if self.active.is_empty() {
            self.advance(jump);
        }
    }

    /// Rotate the ring until the sorted run holds the globally-earliest
    /// entry. Over an empty ring the next entry is the far heap's head,
    /// and only a caller about to pop it (`jump`) fast-forwards there:
    /// one that peeks and leaves it (`run_until` at the end of a slice)
    /// goes on scheduling at its own clock, and a cursor parked ahead of
    /// that clock would turn every such push into a sorted insert.
    fn advance(&mut self, jump: bool) {
        while self.active.is_empty() {
            if self.in_ring == 0 {
                let Some(next) = self.far.peek().map(|e| e.time) else {
                    return;
                };
                if !jump {
                    return;
                }
                self.bucket_start = (next >> WIDTH_SHIFT) << WIDTH_SHIFT;
            } else {
                self.cur = (self.cur + 1) & (N_BUCKETS - 1);
                self.bucket_start += Self::width();
            }
            // The horizon moved: pull far entries that now fit under it.
            self.migrate_far();
            // A bucket that holds entries trades buffers with the drained
            // run (no copy), and the drained one retires to the pool,
            // leaving the bucket no allocation. An idle bucket costs nothing.
            let bucket = &mut self.ring[self.cur];
            if !bucket.is_empty() {
                self.in_ring -= bucket.len();
                std::mem::swap(&mut self.active, bucket);
                self.spare.push(std::mem::take(bucket));
            }
            // `Entry`'s reversed `Ord` makes ascending = latest first;
            // `seq` is unique, so an unstable sort is exact.
            self.active.sort_unstable();
            let n = self.active.len() as u64;
            self.stats.rotations += 1;
            self.stats.empty_rotations += (n == 0) as u64;
            self.stats.run_len_sum += n;
            self.stats.run_len_max = self.stats.run_len_max.max(n);
        }
    }

    /// Move far-heap entries that fit under the (new) horizon into the
    /// ring — the cursor's own bucket included: only `advance` calls
    /// this, just before it takes that bucket as the run.
    fn migrate_far(&mut self) {
        while let Some(head) = self.far.peek() {
            if head.time - self.bucket_start >= Self::span() {
                break;
            }
            let e = self.far.pop().expect("peeked entry");
            self.stats.far_migrations += 1;
            self.push_ring(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue<u32>) -> Vec<(Time, u64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e);
        }
        out
    }

    #[test]
    fn orders_by_time_then_seq() {
        let mut q = EventQueue::new();
        q.push(300, 0, 0);
        q.push(100, 1, 1);
        q.push(100, 2, 2);
        q.push(200, 3, 3);
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, v)| v).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
    }

    #[test]
    fn same_bucket_ties_fifo() {
        let mut q = EventQueue::new();
        for seq in 0..100u64 {
            q.push(42, seq, seq as u32);
        }
        let order: Vec<u64> = drain(&mut q).into_iter().map(|(_, s, _)| s).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ring_rollover_many_laps() {
        // Events spread over many multiples of the ring span.
        let span = (N_BUCKETS as Time) << WIDTH_SHIFT;
        let mut q = EventQueue::new();
        let times: Vec<Time> = (0..50).map(|i| (i * 7919) % (5 * span)).collect();
        for (seq, &t) in times.iter().enumerate() {
            q.push(t, seq as u64, seq as u32);
        }
        let mut expect: Vec<(Time, u64)> = times
            .iter()
            .enumerate()
            .map(|(s, &t)| (t, s as u64))
            .collect();
        expect.sort();
        let got: Vec<(Time, u64)> = drain(&mut q).into_iter().map(|(t, s, _)| (t, s)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn pop_if_gates_on_head_and_iter_sees_all() {
        let mut q = EventQueue::new();
        q.push(100, 0, 10);
        q.push(100, 1, 11);
        q.push(200, 2, 20);
        q.push(u64::MAX / 2, 3, 99); // far heap
        let mut seen: Vec<u32> = q.iter_items().copied().collect();
        seen.sort();
        assert_eq!(seen, vec![10, 11, 20, 99]);
        // Drain the t=100 run.
        let mut run = Vec::new();
        while let Some((_, _, v)) = q.pop_if(|t, _| t == 100) {
            run.push(v);
        }
        assert_eq!(run, vec![10, 11]);
        // Head is now t=200; a t=100 predicate refuses it.
        assert!(q.pop_if(|t, _| t == 100).is_none());
        assert_eq!(q.pop().map(|e| e.2), Some(20));
        assert_eq!(q.iter_items().count(), 1);
    }

    #[test]
    fn far_future_fallback_and_migration() {
        let mut q = EventQueue::new();
        q.push(10, 0, 0);
        q.push(u64::MAX / 2, 1, 1); // far heap
        q.push(20, 2, 2);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().map(|e| e.2), Some(0));
        assert_eq!(q.pop().map(|e| e.2), Some(2));
        // The peek sees across the huge gap; the cursor stays for the
        // push that follows.
        assert_eq!(q.peek_time(), Some(u64::MAX / 2));
        q.push(30, 3, 3);
        assert_eq!(q.pop().map(|e| e.2), Some(3));
        assert_eq!(q.pop().map(|e| e.2), Some(1));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    /// An idle queue holding only a far timer is what `run_until` leaves
    /// between slices. Peeking at it must leave the cursor where the
    /// caller's clock is, or every push until simulated time reached the
    /// timer would be a sorted insert into the run.
    #[test]
    fn peek_at_a_far_entry_leaves_the_ring_to_later_pushes() {
        let mut q = EventQueue::new();
        q.push(60_000_000, 0, 0);
        assert_eq!(q.peek_time(), Some(60_000_000));
        for seq in 1..=10_000u64 {
            q.push(seq * 1_000, seq, 0); // 1 µs … 10 ms
        }
        let order: Vec<u64> = drain(&mut q).into_iter().map(|e| e.1).collect();
        assert!(order.into_iter().eq((1..=10_000).chain([0])));
        let st = q.stats();
        assert_eq!((st.same_bucket_inserts, st.run_len_sum), (0, 10_001));
    }

    /// "Never" (`Time::MAX`) is a legal instant: within one ring span
    /// of it no tier bound may overflow (debug: add-overflow panic;
    /// release: the horizon wrapped, the entry never migrated and `pop`
    /// spun for ever).
    #[test]
    fn entry_at_time_max_pops() {
        let mut q = EventQueue::new();
        q.push(10, 0, 0);
        q.push(Time::MAX, 1, 1);
        assert_eq!(drain(&mut q), vec![(10, 0, 0), (Time::MAX, 1, 1)]);
        // The same through the ring's last two buckets.
        let mut q = EventQueue::new();
        q.push(10, 0, 0);
        q.push(Time::MAX, 1, 1);
        q.push(Time::MAX - 600, 2, 2);
        assert_eq!(q.pop(), Some((10, 0, 0)));
        assert_eq!(q.pop(), Some((Time::MAX - 600, 2, 2)));
        // The cursor now sits one bucket short of the last: schedule
        // into that ring bucket and into the current one.
        q.push(Time::MAX, 3, 3);
        q.push(Time::MAX - 512, 4, 4);
        assert_eq!(q.pop(), Some((Time::MAX - 512, 4, 4)));
        assert_eq!(q.pop(), Some((Time::MAX, 1, 1)));
        assert_eq!(q.pop(), Some((Time::MAX, 3, 3)));
        assert!(q.pop().is_none());
    }

    /// The queue holds memory for the buckets that are busy at once,
    /// not for every ring slot a burst ever passed through.
    #[test]
    fn steady_state_footprint_follows_live_buckets_not_ring_size() {
        let mut q = EventQueue::new();
        let (mut now, mut seq) = (0, 0u64);
        // Three buckets ahead is coprime with the ring size: three laps
        // put a burst in every one of the `N_BUCKETS` slots.
        for _ in 0..N_BUCKETS + 64 {
            now += 3 * EventQueue::<u32>::width();
            for _ in 0..200 {
                q.push(now, seq, 0u32);
                seq += 1;
            }
            assert_eq!(drain(&mut q).len(), 200);
        }
        let st = q.stats();
        assert_eq!((st.bufs_out_max, st.buf_cap_max), (1, 256));
        // Every slot keeping its burst's buffer would be N_BUCKETS × 256.
        assert!(q.held_capacity() <= 16 * 256, "{}", q.held_capacity());
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = EventQueue::new();
        let mut seq = 0u64;
        let mut last = 0;
        let mut push = |q: &mut EventQueue<u32>, t: Time| {
            q.push(t, seq, t as u32);
            seq += 1;
        };
        push(&mut q, 5);
        push(&mut q, 1_000_000);
        for _ in 0..1000 {
            let (t, _, _) = q.pop().unwrap();
            assert!(t >= last, "time went backwards: {t} < {last}");
            last = t;
            // Handlers push relative to the popped time.
            push(&mut q, t + 1_200);
            if t % 3 == 0 {
                push(&mut q, t + 900_000); // long timer
            }
            if q.len() > 64 {
                break;
            }
        }
        let rest = drain(&mut q);
        for w in rest.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }
}
