//! The flight recorder ring buffer and its cheap instrumentation
//! handle.

use std::cell::RefCell;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, Weak};

use crate::event::{Category, CategoryMask, Event};

/// An [`Event`] plus the time and global sequence number it was
/// recorded at.
#[derive(Debug, Clone, PartialEq)]
pub struct Recorded {
    /// Simulated time (ns).
    pub t_ns: u64,
    /// Monotone per-recorder sequence number (never reset, survives
    /// ring wraparound — gaps in a dump reveal overwritten history).
    pub seq: u64,
    /// The event payload.
    pub ev: Event,
}

impl Recorded {
    /// One JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str(&format!(
            "{{\"seq\":{},\"t_ns\":{},\"cat\":\"{}\",",
            self.seq,
            self.t_ns,
            self.ev.category().name()
        ));
        self.ev.write_json_fields(&mut s);
        s.push('}');
        s
    }
}

/// Anything that can receive recorder events. [`FlightRecorder`] is
/// the real implementation; tests can supply counters or filters.
pub(crate) trait ObsSink {
    /// Is this category currently recorded? Instrumentation must call
    /// this before building an event so disabled categories cost
    /// nothing.
    fn enabled(&self, cat: Category) -> bool;
    /// Record one event at simulated time `t_ns`.
    fn record(&mut self, t_ns: u64, ev: Event);
}

/// Fixed-capacity ring buffer of structured events.
#[derive(Debug)]
pub struct FlightRecorder {
    buf: Vec<Recorded>,
    /// Index of the oldest element once the ring has wrapped.
    head: usize,
    cap: usize,
    mask: CategoryMask,
    seq: u64,
    overwritten: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `cap` events (min 1), all categories
    /// enabled.
    pub(crate) fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Self {
            buf: Vec::with_capacity(cap),
            head: 0,
            cap,
            mask: CategoryMask::ALL,
            seq: 0,
            overwritten: 0,
        }
    }

    /// Replace the category enable mask.
    pub fn set_mask(&mut self, mask: CategoryMask) {
        self.mask = mask;
    }

    /// Number of events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// No events recorded yet?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events that fell off the ring's tail.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Total events ever recorded (accepted by the mask).
    pub fn total_recorded(&self) -> u64 {
        self.seq
    }

    /// Oldest-to-newest iteration over the retained window.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Recorded> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// The newest `n` events, oldest first.
    pub fn last(&self, n: usize) -> Vec<Recorded> {
        let skip = self.buf.len().saturating_sub(n);
        self.iter().skip(skip).cloned().collect()
    }

    /// Dump the retained window as JSONL.
    pub(crate) fn dump_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for r in self.iter() {
            writeln!(w, "{}", r.to_json())?;
        }
        Ok(())
    }

    /// Dump the retained window to a file.
    pub fn dump_to_path(&self, path: &Path) -> io::Result<()> {
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        self.dump_jsonl(&mut f)?;
        f.flush()
    }
}

impl ObsSink for FlightRecorder {
    fn enabled(&self, cat: Category) -> bool {
        self.mask.contains(cat)
    }

    fn record(&mut self, t_ns: u64, ev: Event) {
        if !self.mask.contains(ev.category()) {
            return;
        }
        let rec = Recorded {
            t_ns,
            seq: self.seq,
            ev,
        };
        self.seq += 1;
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.cap;
            self.overwritten += 1;
        }
    }
}

/// Cheap clonable handle instrumented code holds. Disabled (the
/// default) it is a `None` and every record site is a single branch;
/// the event-constructor closure is never invoked.
#[derive(Debug, Clone, Default)]
pub struct ObsHandle(Option<Arc<Mutex<FlightRecorder>>>);

impl ObsHandle {
    /// A handle that records nothing at near-zero cost.
    pub fn disabled() -> Self {
        ObsHandle(None)
    }

    /// A handle backed by a fresh recorder of `cap` events.
    pub fn recording(cap: usize) -> Self {
        ObsHandle(Some(Arc::new(Mutex::new(FlightRecorder::new(cap)))))
    }

    /// The shared recorder, if attached (for dumping / inspection).
    pub fn recorder(&self) -> Option<Arc<Mutex<FlightRecorder>>> {
        self.0.clone()
    }

    /// Record the event built by `f` if a recorder is attached and
    /// `cat` is enabled; otherwise `f` is never evaluated.
    #[inline]
    pub fn rec(&self, cat: Category, t_ns: u64, f: impl FnOnce() -> Event) {
        if let Some(cell) = &self.0 {
            let mut r = cell.lock().unwrap();
            if r.enabled(cat) {
                r.record(t_ns, f());
            }
        }
    }

    /// The newest `n` events (empty when disabled).
    pub(crate) fn last(&self, n: usize) -> Vec<Recorded> {
        match &self.0 {
            Some(cell) => cell.lock().unwrap().last(n),
            None => Vec::new(),
        }
    }
}

thread_local! {
    static PANIC_DUMP: RefCell<Option<(Weak<Mutex<FlightRecorder>>, PathBuf)>> =
        const { RefCell::new(None) };
}

/// Arm a panic hook that dumps `handle`'s recorder to `path` if this
/// thread panics — the post-mortem half of the flight recorder. The
/// hook chains to the previously installed one and holds only a weak
/// reference, so a dropped recorder disarms automatically. No-op for a
/// disabled handle.
pub fn arm_panic_dump(handle: &ObsHandle, path: PathBuf) {
    let Some(rc) = handle.recorder() else {
        return;
    };
    PANIC_DUMP.with(|slot| {
        *slot.borrow_mut() = Some((Arc::downgrade(&rc), path));
    });
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANIC_DUMP.with(|slot| {
                if let Some((weak, path)) = slot.borrow().as_ref() {
                    if let Some(rec) = weak.upgrade() {
                        // The recorder may be locked at the panic
                        // point; skip rather than deadlock.
                        if let Ok(r) = rec.try_lock() {
                            if r.dump_to_path(path).is_ok() {
                                eprintln!(
                                    "flight recorder: dumped {} events to {}",
                                    r.len(),
                                    path.display()
                                );
                            }
                        }
                    }
                }
            });
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u32) -> Event {
        Event::Custom {
            label: "t",
            a: i as u64,
            b: 0,
        }
    }

    #[test]
    fn ring_wraparound_keeps_newest() {
        let mut r = FlightRecorder::new(4);
        for i in 0..10u32 {
            r.record(i as u64 * 10, ev(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.capacity(), 4);
        assert_eq!(r.overwritten(), 6);
        assert_eq!(r.total_recorded(), 10);
        let seqs: Vec<u64> = r.iter().map(|x| x.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        // Oldest-first ordering with correct timestamps.
        let ts: Vec<u64> = r.iter().map(|x| x.t_ns).collect();
        assert_eq!(ts, vec![60, 70, 80, 90]);
        // last(n) returns the tail, oldest first.
        let tail: Vec<u64> = r.last(2).iter().map(|x| x.seq).collect();
        assert_eq!(tail, vec![8, 9]);
        // Asking for more than retained returns everything.
        assert_eq!(r.last(100).len(), 4);
    }

    #[test]
    fn category_mask_filters_and_saves_work() {
        let mut r = FlightRecorder::new(8);
        r.set_mask(CategoryMask::of(&[Category::Drop]));
        r.record(1, ev(1)); // Custom: masked out.
        r.record(
            2,
            Event::Drop {
                node: 0,
                port: 0,
                pair: 0,
                kind: "data",
                bytes: 100,
                reason: "down",
            },
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().next().unwrap().ev.category(), Category::Drop);

        // Through the handle, masked categories never build the event.
        let h = ObsHandle(Some(Arc::new(Mutex::new(r))));
        let mut built = false;
        h.rec(Category::Custom, 3, || {
            built = true;
            ev(3)
        });
        assert!(!built, "constructor ran for a masked category");
        h.rec(Category::Drop, 4, || Event::Drop {
            node: 1,
            port: 1,
            pair: 1,
            kind: "ack",
            bytes: 40,
            reason: "random",
        });
        assert_eq!(h.last(10).len(), 2);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = ObsHandle::disabled();
        assert!(h.recorder().is_none());
        let mut built = false;
        h.rec(Category::Enqueue, 0, || {
            built = true;
            ev(0)
        });
        assert!(!built);
        assert!(h.last(5).is_empty());
    }

    #[test]
    fn dump_to_path_writes_retained_window() {
        let h = ObsHandle::recording(4);
        for i in 0..6u32 {
            h.rec(Category::Custom, i as u64, || ev(i));
        }
        let path = std::env::temp_dir().join(format!("obs-dump-{}.jsonl", std::process::id()));
        let rec = h.recorder().unwrap();
        rec.lock().unwrap().dump_to_path(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        // Only the 4 newest survive the wraparound; seq gap shows the
        // overwritten prefix.
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"seq\":2,"));
        assert!(lines[3].starts_with("{\"seq\":5,"));
    }

    #[test]
    fn panic_dump_writes_post_mortem_file() {
        // Silence the default hook before arming so the deliberate
        // panic below doesn't spam test output; arm chains to this.
        std::panic::set_hook(Box::new(|_| {}));
        let h = ObsHandle::recording(8);
        h.rec(Category::Custom, 1, || ev(41));
        h.rec(Category::Custom, 2, || ev(42));
        let path =
            std::env::temp_dir().join(format!("obs-panic-dump-{}.jsonl", std::process::id()));
        arm_panic_dump(&h, path.clone());
        let _ = std::panic::catch_unwind(|| panic!("deliberate test panic"));
        let _ = std::panic::take_hook();
        let text = std::fs::read_to_string(&path).expect("panic hook wrote the dump");
        std::fs::remove_file(&path).ok();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"a\":42"));
    }

    #[test]
    fn jsonl_dump_roundtrip_shape() {
        let mut r = FlightRecorder::new(8);
        r.record(5, ev(1));
        r.record(
            6,
            Event::Link {
                node: 3,
                port: 1,
                up: false,
            },
        );
        let mut out = Vec::new();
        r.dump_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"seq\":0,\"t_ns\":5,\"cat\":\"custom\","));
        assert!(lines[1].contains("\"cat\":\"link\""));
        assert!(lines[1].contains("\"up\":false"));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }
}
