//! Fixed-domain dense bitsets: the set representation of the per-function
//! analyses of [`crate::cfg`] (block sets such as loop bodies, liveness)
//! and [`crate::mem`] (sets over a function's cell universe).
//!
//! Members are plain indices below the domain size given at construction
//! — block numbers, register numbers, or positions in a
//! [`crate::mem::CellUniverse`]. A [`BitMatrix`] is a family of such sets
//! over one domain, one row per block, held in a single allocation; the
//! liveness solver of [`crate::cfg`] iterates its rows in place.
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
//!
//! ```
//! use occ::bitset::{BitMatrix, BitSet};
//!
//! let mut m = BitMatrix::new(3, 70);
//! assert!(m.insert(2, 69) && m.insert(2, 1) && !m.insert(2, 69));
//! assert!(m.contains(2, 1) && !m.contains(1, 1));
//! assert_eq!(m.iter(2).collect::<Vec<_>>(), vec![1, 69]);
//! let mut row = BitSet::new(70);
//! m.copy_row_to(2, &mut row);
//! assert_eq!(row.count(), 2);
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

    /// Removes `i`; returns `true` if it was a member.
    pub fn remove(&mut self, i: usize) -> bool {
        match self.words.get_mut(i / 64) {
            Some(w) => {
                let bit = 1u64 << (i % 64);
                let was = *w & bit != 0;
                *w &= !bit;
                was
            }
            None => false,
        }
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
        members(&self.words)
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

/// The set bits of `words`, in ascending order.
fn members(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
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

/// A family of [`BitSet`]-like rows over one shared domain, stored
/// row-major in one allocation — per-block register sets without a heap
/// object per block. Row `r`'s member `i` is bit `i % 64` of word
/// `i / 64` of [`BitMatrix::row`]`(r)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitMatrix {
    words: Vec<u64>,
    rows: usize,
    row_words: usize,
    domain: usize,
}

impl BitMatrix {
    /// `rows` empty sets over `0..domain`.
    pub fn new(rows: usize, domain: usize) -> BitMatrix {
        let row_words = domain.div_ceil(64);
        BitMatrix {
            words: vec![0; rows * row_words],
            rows,
            row_words,
            domain,
        }
    }

    /// The number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The shared domain size.
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// The words of row `r`.
    pub fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.row_words..(r + 1) * self.row_words]
    }

    /// The words of row `r`, mutably. Bits at or above the domain must
    /// stay clear.
    pub fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.words[r * self.row_words..(r + 1) * self.row_words]
    }

    /// `true` if `i` is a member of row `r` (indices outside the domain
    /// never are).
    pub fn contains(&self, r: usize, i: usize) -> bool {
        i < self.domain && self.row(r)[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Adds `i` to row `r`; returns `true` if it was not already a member.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the domain.
    pub fn insert(&mut self, r: usize, i: usize) -> bool {
        assert!(
            i < self.domain,
            "bit {i} outside a domain of {}",
            self.domain
        );
        let w = &mut self.row_mut(r)[i / 64];
        let bit = 1u64 << (i % 64);
        let fresh = *w & bit == 0;
        *w |= bit;
        fresh
    }

    /// Members of row `r` in ascending order.
    pub fn iter(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        members(self.row(r))
    }

    /// Overwrites `dst` with row `r` (they must share a domain).
    pub fn copy_row_to(&self, r: usize, dst: &mut BitSet) {
        debug_assert_eq!(self.domain, dst.domain);
        dst.words.copy_from_slice(self.row(r));
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
        assert!(a.remove(64) && !a.remove(64) && !a.remove(700));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 5, 69]);
        a.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn matrix_rows_are_independent_sets() {
        for domain in [0, 1, 64, 65, 130] {
            let mut m = BitMatrix::new(4, domain);
            assert_eq!((m.rows(), m.domain()), (4, domain));
            for i in (0..domain).step_by(3) {
                m.insert(1, i);
            }
            if domain > 0 {
                m.insert(3, domain - 1);
            }
            assert_eq!(
                m.iter(1).collect::<Vec<_>>(),
                (0..domain).step_by(3).collect::<Vec<_>>()
            );
            assert_eq!(m.iter(0).count() + m.iter(2).count(), 0);
            assert_eq!(
                m.iter(3).collect::<Vec<_>>(),
                (domain.max(1) - 1..domain).collect::<Vec<_>>()
            );
            assert!(!m.contains(1, domain));
            let mut row = BitSet::new(domain);
            m.copy_row_to(1, &mut row);
            assert!(m.iter(1).eq(row.iter()));
        }
    }
}
