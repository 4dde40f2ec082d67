//! A fixed-domain dense bitset: the set representation of the per-function
//! analyses of [`crate::cfg`] (block sets such as loop bodies) and
//! [`crate::mem`] (sets over a function's cell universe).
//!
//! Members are plain indices below the domain size given at construction
//! — block numbers, or positions in a [`crate::mem::CellUniverse`].
//! Iteration is always in ascending index order, which is the order the
//! ordered sets these analyses replaced iterated in, so swapping one for
//! the other never reorders anything that reaches the output.
//!
//! ```
//! use occ::bitset::BitSet;
//!
//! let mut s = BitSet::new(130);
//! assert!(s.insert(129) && s.insert(3) && !s.insert(3));
//! let mut t = BitSet::full(130);
//! t.subtract(&s);
//! assert_eq!(t.count(), 128);
//! assert!(!t.contains(3) && t.contains(4));
//! assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 129]);
//! ```

/// A set of indices below a fixed domain size, one bit per index.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitSet {
    words: Vec<u64>,
    domain: usize,
}

impl BitSet {
    /// The empty set over `0..domain`.
    pub fn new(domain: usize) -> BitSet {
        BitSet {
            words: vec![0; domain.div_ceil(64)],
            domain,
        }
    }

    /// The full set `0..domain`.
    pub fn full(domain: usize) -> BitSet {
        let mut s = BitSet {
            words: vec![u64::MAX; domain.div_ceil(64)],
            domain,
        };
        if !domain.is_multiple_of(64) {
            if let Some(last) = s.words.last_mut() {
                *last = (1u64 << (domain % 64)) - 1;
            }
        }
        s
    }

    /// `true` if `i` is a member (indices outside the domain never are).
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Adds `i`; returns `true` if it was not already a member.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the domain.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(
            i < self.domain,
            "bit {i} outside a domain of {}",
            self.domain
        );
        let w = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        let fresh = *w & bit == 0;
        *w |= bit;
        fresh
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if the set has no member.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * 64 + bit)
            })
        })
    }

    /// `self ∩= other` (the sets must share a domain).
    pub fn intersect_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.domain, other.domain);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// `self ∪= other` (the sets must share a domain).
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.domain, other.domain);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// `self ∖= other` (the sets must share a domain).
    pub fn subtract(&mut self, other: &BitSet) {
        debug_assert_eq!(self.domain, other.domain);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_sets_stop_at_the_domain() {
        for domain in [0, 1, 63, 64, 65, 128] {
            let s = BitSet::full(domain);
            assert_eq!(s.count(), domain);
            assert_eq!(
                s.iter().collect::<Vec<_>>(),
                (0..domain).collect::<Vec<_>>()
            );
            assert!(!s.contains(domain));
        }
    }

    #[test]
    fn set_algebra() {
        let mut a = BitSet::new(70);
        let mut b = BitSet::new(70);
        for i in [0, 5, 64, 69] {
            a.insert(i);
        }
        for i in [5, 64, 66] {
            b.insert(i);
        }
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![0, 5, 64, 66, 69]);
        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![0, 69]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![5, 64]);
        assert!(!a.contains(700));
        a.clear();
        assert!(a.is_empty());
    }
}
