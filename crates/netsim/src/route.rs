//! Inline source routes.
//!
//! Every packet carries its source route (one egress port per node). On
//! FatTree-class fabrics a path is at most host → ToR → Agg → Core →
//! Agg → ToR (≤ 6 hops), yet storing it as a `Vec<PortNo>` cost one
//! heap allocation per packet *and per clone* — the single largest
//! allocation source in the event loop. [`Route`] keeps up to
//! [`MAX_INLINE_HOPS`] ports in a fixed array inside the packet and
//! only spills to the heap for unusually deep paths.

use crate::ids::PortNo;
use std::fmt;
use std::ops::Deref;

/// Hops stored inline before spilling to the heap. Covers every
/// topology in the repo (deepest: three-tier at 6 switch+host hops)
/// with slack for experimental fabrics.
pub(crate) const MAX_INLINE_HOPS: usize = 8;

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        hops: [PortNo; MAX_INLINE_HOPS],
    },
    Heap(Vec<PortNo>),
}

/// A packet's source route: egress port to take at each node, starting
/// with the sending host. Behaves like a `[PortNo]` slice (it derefs to
/// one); construct with [`Route::new`], `from`, `collect()`, or
/// `Route::push`.
#[derive(Clone)]
pub struct Route(Repr);

impl Route {
    /// The empty route (falls back to per-node ECMP tables).
    #[inline]
    pub const fn new() -> Self {
        Route(Repr::Inline {
            len: 0,
            hops: [PortNo(0); MAX_INLINE_HOPS],
        })
    }

    /// Append an egress port.
    pub(crate) fn push(&mut self, p: PortNo) {
        match &mut self.0 {
            Repr::Inline { len, hops } => {
                if (*len as usize) < MAX_INLINE_HOPS {
                    hops[*len as usize] = p;
                    *len += 1;
                } else {
                    let mut v = hops.to_vec();
                    v.push(p);
                    self.0 = Repr::Heap(v);
                }
            }
            Repr::Heap(v) => v.push(p),
        }
    }

    /// The hops as a slice.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[PortNo] {
        match &self.0 {
            Repr::Inline { len, hops } => &hops[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

impl Default for Route {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for Route {
    type Target = [PortNo];
    #[inline]
    fn deref(&self) -> &[PortNo] {
        self.as_slice()
    }
}

impl From<&[PortNo]> for Route {
    fn from(s: &[PortNo]) -> Self {
        if s.len() <= MAX_INLINE_HOPS {
            let mut hops = [PortNo(0); MAX_INLINE_HOPS];
            hops[..s.len()].copy_from_slice(s);
            Route(Repr::Inline {
                len: s.len() as u8,
                hops,
            })
        } else {
            Route(Repr::Heap(s.to_vec()))
        }
    }
}

impl From<Vec<PortNo>> for Route {
    fn from(v: Vec<PortNo>) -> Self {
        if v.len() <= MAX_INLINE_HOPS {
            Route::from(v.as_slice())
        } else {
            Route(Repr::Heap(v))
        }
    }
}

impl<const N: usize> From<[PortNo; N]> for Route {
    fn from(a: [PortNo; N]) -> Self {
        Route::from(a.as_slice())
    }
}

impl FromIterator<PortNo> for Route {
    fn from_iter<I: IntoIterator<Item = PortNo>>(iter: I) -> Self {
        let mut r = Route::new();
        for p in iter {
            r.push(p);
        }
        r
    }
}

impl PartialEq for Route {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Route {}

impl PartialEq<[PortNo]> for Route {
    fn eq(&self, other: &[PortNo]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<Vec<PortNo>> for Route {
    fn eq(&self, other: &Vec<PortNo>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Route {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

/// `Debug` prints like the slice it wraps (`[PortNo(0), PortNo(2)]`).
impl fmt::Debug for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_then_spills() {
        let mut r = Route::new();
        assert!(r.is_empty());
        for i in 0..MAX_INLINE_HOPS as u16 {
            r.push(PortNo(i));
        }
        assert_eq!(r.len(), MAX_INLINE_HOPS);
        r.push(PortNo(99));
        assert_eq!(r.len(), MAX_INLINE_HOPS + 1);
        assert_eq!(r[MAX_INLINE_HOPS], PortNo(99));
    }

    #[test]
    fn conversions_and_equality() {
        let v = vec![PortNo(1), PortNo(2), PortNo(3)];
        let r: Route = v.clone().into();
        assert_eq!(r, v);
        assert_eq!(r, *v.as_slice());
        let r2: Route = v.iter().copied().collect();
        assert_eq!(r, r2);
        let long: Route = (0..20).map(PortNo).collect();
        assert_eq!(long.len(), 20);
        assert_eq!(Route::from(long.to_vec()), long);
    }

    #[test]
    fn hash_matches_slice_semantics() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Route::from([PortNo(0), PortNo(1)]));
        assert!(set.contains(&Route::from(vec![PortNo(0), PortNo(1)])));
        assert!(!set.contains(&Route::new()));
    }
}
