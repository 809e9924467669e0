//! Beat payload storage sized to the modelled bus.
//!
//! The modelled HP port is 128 bits wide (DESIGN §4), so every beat the
//! workloads move carries at most 16 bytes. [`Payload`] keeps up to
//! [`PAYLOAD_INLINE`] bytes inline in the beat itself, so a beat moves
//! through the queues as one small flat value with no heap allocation,
//! and spills to a boxed slice for wider beats (`BurstSize::B32` and
//! up, which AXI allows but no modelled traffic generates).
//!
//! Handle/lifetime rules are trivial by construction: the bytes are owned
//! by the beat, live exactly as long as it, and move with it between
//! queues — there is no arena to leak from or dangle into. Construction
//! goes through the zero-alloc paths ([`Payload::zeroed`],
//! [`Payload::from_fn`], `From<&[u8]>`) on the hot paths; `From<Vec<u8>>`
//! exists for tests and cold call sites.

/// Maximum payload length stored inline (no heap) in a beat: one
/// 128-bit bus beat.
pub const PAYLOAD_INLINE: usize = 16;

/// Owned beat payload bytes with inline small-buffer storage.
///
/// Dereferences to `[u8]`, so slice reads (`len`, indexing, `iter`,
/// comparisons) work as they did on the former `Vec<u8>` field.
///
/// # Example
///
/// ```
/// use axi::Payload;
///
/// let p = Payload::from_fn(4, |i| i as u8 * 2);
/// assert_eq!(&p[..], &[0, 2, 4, 6]);
/// assert_eq!(p, vec![0, 2, 4, 6]); // compares against Vec<u8> too
/// ```
#[derive(Clone)]
pub struct Payload(Repr);

/// Storage of a [`Payload`]: `Spill` only for more than
/// [`PAYLOAD_INLINE`] bytes.
#[derive(Clone)]
enum Repr {
    /// The first `len` bytes of `bytes`.
    Inline {
        len: u8,
        bytes: [u8; PAYLOAD_INLINE],
    },
    Spill(Box<[u8]>),
}

impl Payload {
    /// The empty payload.
    pub fn new() -> Self {
        Self::zeroed(0)
    }

    /// A zero-filled payload of `len` bytes. Allocation-free for
    /// `len <= PAYLOAD_INLINE`.
    pub fn zeroed(len: usize) -> Self {
        match u8::try_from(len) {
            Ok(len) if usize::from(len) <= PAYLOAD_INLINE => Self(Repr::Inline {
                len,
                bytes: [0; PAYLOAD_INLINE],
            }),
            _ => Self(Repr::Spill(vec![0u8; len].into_boxed_slice())),
        }
    }

    /// A payload of `len` bytes where byte `i` is `fill(i)`.
    /// Allocation-free for `len <= PAYLOAD_INLINE`.
    pub fn from_fn(len: usize, mut fill: impl FnMut(usize) -> u8) -> Self {
        let mut p = Self::zeroed(len);
        for (i, b) in p.as_mut_slice().iter_mut().enumerate() {
            *b = fill(i);
        }
        p
    }

    /// The payload bytes as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Spill(heap) => heap,
        }
    }

    /// The payload bytes as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        match &mut self.0 {
            Repr::Inline { len, bytes } => &mut bytes[..usize::from(*len)],
            Repr::Spill(heap) => heap,
        }
    }

    /// Copies the bytes into a fresh `Vec` (cold paths / tests).
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Payload {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for Payload {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        self.as_mut_slice()
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl std::hash::Hash for Payload {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Payload> for Vec<u8> {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        let mut p = Self::zeroed(bytes.len());
        p.as_mut_slice().copy_from_slice(bytes);
        p
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        if bytes.len() <= PAYLOAD_INLINE {
            Self::from(bytes.as_slice())
        } else {
            Self(Repr::Spill(bytes.into_boxed_slice()))
        }
    }
}

impl<const N: usize> From<[u8; N]> for Payload {
    fn from(bytes: [u8; N]) -> Self {
        Self::from(bytes.as_slice())
    }
}

impl FromIterator<u8> for Payload {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut bytes = [0u8; PAYLOAD_INLINE];
        let mut len = 0usize;
        for b in iter.by_ref() {
            if len == PAYLOAD_INLINE {
                // Overflow: continue into a Vec and spill.
                let mut v = bytes.to_vec();
                v.push(b);
                v.extend(iter);
                return Self::from(v);
            }
            bytes[len] = b;
            len += 1;
        }
        Self::from(&bytes[..len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_roundtrip() {
        let p = Payload::from(vec![1u8, 2, 3]);
        assert_eq!(p.len(), 3);
        assert_eq!(&p[..], &[1, 2, 3]);
        assert_eq!(p, vec![1, 2, 3]);
        assert_eq!(p.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn empty_payload() {
        let p = Payload::default();
        assert!(p.is_empty());
        assert_eq!(p, Vec::<u8>::new());
    }

    #[test]
    fn zeroed_and_from_fn() {
        let z = Payload::zeroed(16);
        assert_eq!(z, vec![0u8; 16]);
        let f = Payload::from_fn(5, |i| (i * i) as u8);
        assert_eq!(f, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn boundary_at_inline_cap() {
        let exactly = Payload::zeroed(PAYLOAD_INLINE);
        assert_eq!(exactly.len(), PAYLOAD_INLINE);
        let over = Payload::from_fn(PAYLOAD_INLINE + 1, |i| i as u8);
        assert_eq!(over.len(), PAYLOAD_INLINE + 1);
        assert_eq!(over[PAYLOAD_INLINE], PAYLOAD_INLINE as u8);
    }

    #[test]
    fn spilled_payload_roundtrip() {
        let big: Vec<u8> = (0..128).map(|i| i as u8).collect();
        let p = Payload::from(big.clone());
        assert_eq!(p, big);
        let q = p.clone();
        assert_eq!(q, big);
        let mut m = p;
        m.as_mut_slice()[0] = 0xFF;
        assert_eq!(m[0], 0xFF);
    }

    #[test]
    fn mutation_through_deref() {
        let mut p = Payload::zeroed(4);
        p[2] = 7;
        assert_eq!(p, vec![0, 0, 7, 0]);
    }

    #[test]
    fn equality_is_by_bytes_not_storage() {
        // Same logical bytes, one inline and one (forced) via Vec.
        let a = Payload::from_fn(8, |i| i as u8);
        let b = Payload::from((0..8u8).collect::<Vec<_>>());
        assert_eq!(a, b);
        assert_ne!(a, Payload::zeroed(8));
    }

    #[test]
    fn collects_from_iterator() {
        let p: Payload = (0..10u8).map(|b| b * 3).collect();
        assert_eq!(p, (0..10u8).map(|b| b * 3).collect::<Vec<_>>());
        // Overflow past the inline capacity spills but keeps the bytes.
        let big: Payload = (0..100u32).map(|b| b as u8).collect();
        assert_eq!(big, (0..100u32).map(|b| b as u8).collect::<Vec<_>>());
    }

    #[test]
    fn lengths_past_a_byte_spill() {
        assert_eq!(Payload::zeroed(300), vec![0u8; 300]);
    }

    #[test]
    fn beats_stay_small() {
        // One 128-bit beat inline keeps every queue entry flat; a
        // larger inline buffer is paid for by every queued beat.
        assert!(std::mem::size_of::<Payload>() <= 24);
        assert!(std::mem::size_of::<crate::WBeat>() <= 64);
        assert!(std::mem::size_of::<crate::RBeat>() <= 64);
    }
}
