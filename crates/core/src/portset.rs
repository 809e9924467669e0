//! A set of slave-port indices, one bit per port.
//!
//! The HyperConnect keeps its per-cycle work proportional to the ports
//! that have work: it records which ports it visited, which ports are
//! known quiet and which ports staged a sub-request for the EXBAR in
//! [`PortSet`]s. [`crate::HcConfig`] has no port cap, so the set spans
//! as many 64-bit words as the port count needs.

/// A set of port indices below a fixed capacity.
///
/// Ports `0..64` live in an inline word, so sets of interconnects up to
/// 64 ports never touch the heap: the hot-path operations are a few
/// register instructions, and clearing is a single store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortSet {
    /// Ports `0..64`.
    low: u64,
    /// Ports from 64 up, 64 to a word.
    high: Vec<u64>,
}

impl PortSet {
    /// An empty set able to hold ports `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            low: 0,
            high: vec![0; n.saturating_sub(64).div_ceil(64)],
        }
    }

    /// The set of every port in `0..n`.
    pub fn full(n: usize) -> Self {
        let mut set = Self::new(n);
        set.fill(n);
        set
    }

    /// The word holding ports `64 * k ..`.
    fn word(&self, k: usize) -> Option<u64> {
        match k {
            0 => Some(self.low),
            _ => self.high.get(k - 1).copied(),
        }
    }

    fn word_mut(&mut self, i: usize) -> &mut u64 {
        match i / 64 {
            0 => &mut self.low,
            k => &mut self.high[k - 1],
        }
    }

    /// Adds port `i`.
    pub fn insert(&mut self, i: usize) {
        *self.word_mut(i) |= 1 << (i % 64);
    }

    /// Removes port `i`.
    pub fn remove(&mut self, i: usize) {
        *self.word_mut(i) &= !(1 << (i % 64));
    }

    /// Whether port `i` is a member.
    pub fn contains(&self, i: usize) -> bool {
        self.word(i / 64).is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.low == 0 && self.high.iter().all(|&w| w == 0)
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.low = 0;
        if !self.high.is_empty() {
            self.high.fill(0);
        }
    }

    /// Makes every port in `0..n` a member.
    pub fn fill(&mut self, n: usize) {
        let ones = |below: usize| {
            if below >= 64 {
                u64::MAX
            } else {
                (1u64 << below) - 1
            }
        };
        self.low = ones(n);
        for (k, word) in self.high.iter_mut().enumerate() {
            *word = ones(n.saturating_sub((k + 1) * 64));
        }
    }

    /// Members in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        self.iter_from(0)
    }

    /// Members at or above `from`, in ascending order.
    pub fn iter_from(&self, from: usize) -> Iter<'_> {
        let k = from / 64;
        Iter {
            set: self,
            k,
            bits: self.word(k).map_or(0, |w| w & (u64::MAX << (from % 64))),
        }
    }
}

/// Ascending iterator over the members of a [`PortSet`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a PortSet,
    /// Index of the word `bits` came from.
    k: usize,
    /// Members of word `k` not yet yielded.
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.k += 1;
            self.bits = self.set.word(self.k)?;
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.k * 64 + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_spans_words() {
        let mut s = PortSet::new(130);
        assert!(s.is_empty());
        for i in [0, 63, 64, 127, 129] {
            s.insert(i);
        }
        assert!(s.contains(64) && !s.contains(65));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 129]);
        assert_eq!(s.iter_from(64).collect::<Vec<_>>(), vec![64, 127, 129]);
        assert_eq!(s.iter_from(65).collect::<Vec<_>>(), vec![127, 129]);
        assert_eq!(s.iter_from(130).count(), 0);
        s.remove(63);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 127, 129]);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn full_holds_exactly_the_ports() {
        for n in [1, 2, 14, 63, 64, 65, 128, 130] {
            let s = PortSet::full(n);
            assert_eq!(s.iter().collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
        }
    }
}
