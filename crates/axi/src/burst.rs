//! Burst arithmetic: byte counts, the 4 KiB rule, and nominal-size
//! splitting (transaction equalization).

use crate::types::{BurstSize, TxnError};

/// The AXI 4 KiB boundary that a single burst may not cross.
pub const BOUNDARY_4K: u64 = 4096;

/// Total bytes moved by a burst of `len` beats at `size` bytes/beat.
///
/// # Example
///
/// ```
/// use axi::burst::total_bytes;
/// use axi::types::BurstSize;
///
/// assert_eq!(total_bytes(16, BurstSize::B4), 64);
/// ```
pub fn total_bytes(len: u32, size: BurstSize) -> u64 {
    len as u64 * size.bytes()
}

/// Whether an INCR burst starting at `addr` with `len` beats of `size`
/// crosses a 4 KiB boundary (illegal in AXI).
///
/// # Example
///
/// ```
/// use axi::burst::crosses_4k;
/// use axi::types::BurstSize;
///
/// assert!(!crosses_4k(0x0FC0, 4, BurstSize::B16)); // ends at 0x1000
/// assert!(crosses_4k(0x0FC0, 5, BurstSize::B16));  // ends at 0x1010
/// ```
pub fn crosses_4k(addr: u64, len: u32, size: BurstSize) -> bool {
    let bytes = total_bytes(len, size);
    if bytes == 0 {
        return false;
    }
    let last = addr + bytes - 1;
    (addr / BOUNDARY_4K) != (last / BOUNDARY_4K)
}

/// The address of beat `beat_index` of an INCR burst.
fn incr_beat_addr(addr: u64, size: BurstSize, beat_index: u32) -> u64 {
    addr + beat_index as u64 * size.bytes()
}

/// The address of beat `beat_index` for any burst kind.
///
/// * `FIXED` — every beat targets the start address;
/// * `INCR` — addresses increment by the beat size;
/// * `WRAP` — addresses increment and wrap at the container boundary
///   (`len * size` bytes, aligned).
///
/// # Example
///
/// ```
/// use axi::burst::beat_addr;
/// use axi::types::{BurstKind, BurstSize};
///
/// // A 4-beat WRAP burst of 4-byte beats starting at 0x108 wraps at the
/// // 16-byte container [0x100, 0x110).
/// let addrs: Vec<u64> = (0..4)
///     .map(|i| beat_addr(BurstKind::Wrap, 0x108, 4, BurstSize::B4, i))
///     .collect();
/// assert_eq!(addrs, vec![0x108, 0x10C, 0x100, 0x104]);
/// ```
pub fn beat_addr(
    kind: crate::types::BurstKind,
    addr: u64,
    len: u32,
    size: BurstSize,
    beat_index: u32,
) -> u64 {
    use crate::types::BurstKind;
    match kind {
        BurstKind::Fixed => addr,
        BurstKind::Incr => incr_beat_addr(addr, size, beat_index),
        BurstKind::Wrap => {
            let container = len as u64 * size.bytes();
            let boundary = (addr / container) * container;
            let linear = addr + beat_index as u64 * size.bytes();
            if linear >= boundary + container {
                linear - container
            } else {
                linear
            }
        }
    }
}

/// One fragment of a split burst: a start address and a beat count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubBurst {
    /// Start address of the fragment.
    pub addr: u64,
    /// Number of beats in the fragment (1..=nominal).
    pub len: u32,
}

/// Splits an INCR burst into fragments of at most `nominal` beats.
///
/// This is the *transaction equalization* of Restuccia et al. (TECS
/// 2019) implemented by the HyperConnect's Transaction Supervisor: every
/// master's traffic is decomposed into sub-bursts of a common nominal
/// size, so that round-robin arbitration at transaction granularity
/// distributes *bandwidth* fairly even when masters issue heterogeneous
/// burst lengths.
///
/// The final fragment carries the remainder when `len` is not a multiple
/// of `nominal`. The fragments are produced lazily, so splitting
/// allocates nothing.
///
/// # Panics
///
/// Panics if `nominal` or `len` is zero.
///
/// # Example
///
/// ```
/// use axi::burst::{split_incr, SubBurst};
/// use axi::types::BurstSize;
///
/// let subs: Vec<_> = split_incr(0x1000, 40, BurstSize::B4, 16).collect();
/// assert_eq!(subs, vec![
///     SubBurst { addr: 0x1000, len: 16 },
///     SubBurst { addr: 0x1040, len: 16 },
///     SubBurst { addr: 0x1080, len: 8 },
/// ]);
/// ```
pub fn split_incr(
    addr: u64,
    len: u32,
    size: BurstSize,
    nominal: u32,
) -> impl Iterator<Item = SubBurst> {
    assert!(nominal > 0, "nominal burst length must be non-zero");
    assert!(len > 0, "burst length must be non-zero");
    let mut remaining = len;
    let mut cursor = addr;
    std::iter::from_fn(move || {
        let chunk = remaining.min(nominal);
        (chunk > 0).then(|| {
            let sub = SubBurst {
                addr: cursor,
                len: chunk,
            };
            cursor += chunk as u64 * size.bytes();
            remaining -= chunk;
            sub
        })
    })
}

/// Validates that an address is aligned to the beat size.
///
/// # Errors
///
/// Returns [`TxnError::Unaligned`] on misalignment.
pub fn check_alignment(addr: u64, size: BurstSize) -> Result<(), TxnError> {
    if !addr.is_multiple_of(size.bytes()) {
        Err(TxnError::Unaligned {
            addr,
            size: size.bytes(),
        })
    } else {
        Ok(())
    }
}

/// Validates a WRAP burst length (must be 2, 4, 8 or 16 beats).
///
/// # Errors
///
/// Returns [`TxnError::BadWrapLen`] otherwise.
pub fn check_wrap_len(len: u32) -> Result<(), TxnError> {
    if matches!(len, 2 | 4 | 8 | 16) {
        Ok(())
    } else {
        Err(TxnError::BadWrapLen { len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn total_bytes_basic() {
        assert_eq!(total_bytes(1, BurstSize::B4), 4);
        assert_eq!(total_bytes(256, BurstSize::B16), 4096);
    }

    #[test]
    fn boundary_exactly_at_4k_is_legal() {
        // A 4096-byte burst starting at 0 ends at 4095: legal.
        assert!(!crosses_4k(0, 256, BurstSize::B16));
        // The same burst starting at 16 spills into the next page.
        assert!(crosses_4k(16, 256, BurstSize::B16));
    }

    #[test]
    fn single_beat_never_crosses_when_aligned() {
        for size in BurstSize::ALL {
            assert!(!crosses_4k(0x1000 - size.bytes(), 1, size));
        }
    }

    #[test]
    fn beat_addresses_increment_by_size() {
        assert_eq!(incr_beat_addr(0x100, BurstSize::B8, 0), 0x100);
        assert_eq!(incr_beat_addr(0x100, BurstSize::B8, 3), 0x118);
    }

    #[test]
    fn fixed_beats_stay_put() {
        use crate::types::BurstKind;
        for i in 0..8 {
            assert_eq!(
                beat_addr(BurstKind::Fixed, 0x400, 8, BurstSize::B4, i),
                0x400
            );
        }
    }

    #[test]
    fn wrap_from_container_start_is_linear() {
        use crate::types::BurstKind;
        let addrs: Vec<u64> = (0..4)
            .map(|i| beat_addr(BurstKind::Wrap, 0x100, 4, BurstSize::B4, i))
            .collect();
        assert_eq!(addrs, vec![0x100, 0x104, 0x108, 0x10C]);
    }

    #[test]
    fn wrap_mid_container_wraps_around() {
        use crate::types::BurstKind;
        let addrs: Vec<u64> = (0..8)
            .map(|i| beat_addr(BurstKind::Wrap, 0x130, 8, BurstSize::B8, i))
            .collect();
        // Container is 64 bytes: [0x100, 0x140).
        assert_eq!(
            addrs,
            vec![0x130, 0x138, 0x100, 0x108, 0x110, 0x118, 0x120, 0x128]
        );
    }

    #[test]
    fn split_exact_multiple() {
        let subs: Vec<_> = split_incr(0, 32, BurstSize::B4, 16).collect();
        assert_eq!(subs.len(), 2);
        assert!(subs.iter().all(|s| s.len == 16));
        assert_eq!(subs[1].addr, 64);
    }

    #[test]
    fn split_with_remainder() {
        let subs: Vec<_> = split_incr(0, 17, BurstSize::B4, 16).collect();
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].len, 16);
        assert_eq!(subs[1].len, 1);
        assert_eq!(subs[1].addr, 64);
    }

    #[test]
    fn split_shorter_than_nominal_is_identity() {
        let subs: Vec<_> = split_incr(0x40, 5, BurstSize::B8, 16).collect();
        assert_eq!(subs, vec![SubBurst { addr: 0x40, len: 5 }]);
    }

    #[test]
    fn split_count_matches_split() {
        for (len, nominal) in [(1u32, 1u32), (16, 16), (17, 16), (255, 16), (256, 8)] {
            assert_eq!(
                len.div_ceil(nominal) as usize,
                split_incr(0, len, BurstSize::B4, nominal).count()
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn split_zero_nominal_panics() {
        let _ = split_incr(0, 4, BurstSize::B4, 0);
    }

    #[test]
    fn alignment_checks() {
        assert!(check_alignment(0x1000, BurstSize::B16).is_ok());
        assert_eq!(
            check_alignment(0x1001, BurstSize::B16),
            Err(TxnError::Unaligned {
                addr: 0x1001,
                size: 16
            })
        );
    }

    #[test]
    fn wrap_lengths() {
        for ok in [2u32, 4, 8, 16] {
            assert!(check_wrap_len(ok).is_ok());
        }
        for bad in [1u32, 3, 5, 17, 32] {
            assert!(check_wrap_len(bad).is_err());
        }
    }

    proptest! {
        /// Splitting preserves total beats, covers a contiguous address
        /// range, and every fragment respects the nominal bound.
        #[test]
        fn split_preserves_coverage(
            addr in 0u64..1_000_000,
            len in 1u32..1024,
            nominal in 1u32..64,
        ) {
            let size = BurstSize::B4;
            let addr = addr * size.bytes(); // aligned
            let subs: Vec<_> = split_incr(addr, len, size, nominal).collect();
            // Beat conservation.
            let total: u32 = subs.iter().map(|s| s.len).sum();
            prop_assert_eq!(total, len);
            // Contiguity.
            let mut cursor = addr;
            for s in &subs {
                prop_assert_eq!(s.addr, cursor);
                prop_assert!(s.len >= 1 && s.len <= nominal);
                cursor += s.len as u64 * size.bytes();
            }
            // Only the last fragment may be short.
            for s in &subs[..subs.len() - 1] {
                prop_assert_eq!(s.len, nominal);
            }
        }

        /// `crosses_4k` agrees with a brute-force per-beat page check.
        #[test]
        fn crosses_4k_matches_bruteforce(
            addr in 0u64..20_000,
            len in 1u32..64,
            size_idx in 0usize..8,
        ) {
            let size = BurstSize::ALL[size_idx];
            let addr = addr - (addr % size.bytes()); // align
            let first_page = addr / BOUNDARY_4K;
            let last_byte = addr + total_bytes(len, size) - 1;
            let brute = last_byte / BOUNDARY_4K != first_page;
            prop_assert_eq!(crosses_4k(addr, len, size), brute);
        }
    }
}
