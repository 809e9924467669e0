//! A sparse, byte-addressable backing store for the modeled DRAM.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Hashes a page number with one multiply by 2^64 / phi (Fibonacci
/// hashing). Page numbers are dense integers the simulator computes
/// from its own address arithmetic, so they need spreading, not
/// SipHash's protection against crafted keys; an odd multiplier keeps
/// consecutive pages in distinct buckets and mixes them into the high
/// bits the table's control bytes use.
#[derive(Debug, Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A sparse memory image: pages are allocated on first write; unwritten
/// bytes read as zero (as freshly initialized DRAM is modeled here).
///
/// Pages live in a flat `Vec` of boxed 4 KiB frames with a `HashMap`
/// translating page numbers to frame indices, plus a one-entry
/// last-page cache: sequential burst traffic (the common case — beats
/// walk linearly through a page) costs one hash lookup per 4 KiB
/// instead of one per beat. [`read_into`](Self::read_into) is the
/// zero-allocation read path used by the memory controller's per-beat
/// serve loop; [`read`](Self::read) stays for cold paths and tests.
///
/// # Example
///
/// ```
/// use mem::SparseMemory;
///
/// let mut m = SparseMemory::new();
/// m.write(0x1000, &[1, 2, 3]);
/// assert_eq!(m.read(0x1000, 4), vec![1, 2, 3, 0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SparseMemory {
    /// Flat frame storage; never shrinks.
    frames: Vec<Box<[u8; PAGE_SIZE]>>,
    /// Page number → frame index.
    index: HashMap<u64, u32, BuildHasherDefault<PageHasher>>,
    /// Last (page number, frame index) touched by a cached-path access.
    last: Option<(u64, u32)>,
}

impl SparseMemory {
    /// Creates an empty (all-zero) memory image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a page's frame without touching the cache (shared-ref
    /// paths).
    #[inline]
    fn frame_of(&self, page: u64) -> Option<u32> {
        if let Some((p, f)) = self.last {
            if p == page {
                return Some(f);
            }
        }
        self.index.get(&page).copied()
    }

    /// Looks up a page's frame, refreshing the last-page cache.
    #[inline]
    fn frame_of_cached(&mut self, page: u64) -> Option<u32> {
        if let Some((p, f)) = self.last {
            if p == page {
                return Some(f);
            }
        }
        let f = self.index.get(&page).copied();
        if let Some(f) = f {
            self.last = Some((page, f));
        }
        f
    }

    /// Looks up or allocates a page's frame, refreshing the cache.
    #[inline]
    fn frame_of_or_alloc(&mut self, page: u64) -> u32 {
        if let Some(f) = self.frame_of_cached(page) {
            return f;
        }
        let f = self.frames.len() as u32;
        self.frames.push(Box::new([0u8; PAGE_SIZE]));
        self.index.insert(page, f);
        self.last = Some((page, f));
        f
    }

    /// Reads `len` bytes starting at `addr`, crossing pages as needed.
    pub fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut cursor = addr;
        let mut remaining = len;
        while remaining > 0 {
            let page = cursor >> PAGE_SHIFT;
            let offset = (cursor & (PAGE_SIZE as u64 - 1)) as usize;
            let chunk = remaining.min(PAGE_SIZE - offset);
            match self.frame_of(page) {
                Some(f) => out.extend_from_slice(&self.frames[f as usize][offset..offset + chunk]),
                None => out.extend(std::iter::repeat_n(0, chunk)),
            }
            cursor += chunk as u64;
            remaining -= chunk;
        }
        out
    }

    /// Reads `out.len()` bytes starting at `addr` into `out`, crossing
    /// pages as needed. Allocation-free; the hot-path counterpart of
    /// [`read`](Self::read).
    pub fn read_into(&mut self, addr: u64, out: &mut [u8]) {
        let mut cursor = addr;
        let mut dst = out;
        while !dst.is_empty() {
            let page = cursor >> PAGE_SHIFT;
            let offset = (cursor & (PAGE_SIZE as u64 - 1)) as usize;
            let chunk = dst.len().min(PAGE_SIZE - offset);
            let (head, rest) = dst.split_at_mut(chunk);
            match self.frame_of_cached(page) {
                Some(f) => head.copy_from_slice(&self.frames[f as usize][offset..offset + chunk]),
                None => head.fill(0),
            }
            cursor += chunk as u64;
            dst = rest;
        }
    }

    /// Writes `data` starting at `addr`, crossing pages as needed.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        let mut cursor = addr;
        let mut src = data;
        while !src.is_empty() {
            let page = cursor >> PAGE_SHIFT;
            let offset = (cursor & (PAGE_SIZE as u64 - 1)) as usize;
            let chunk = src.len().min(PAGE_SIZE - offset);
            let f = self.frame_of_or_alloc(page);
            self.frames[f as usize][offset..offset + chunk].copy_from_slice(&src[..chunk]);
            cursor += chunk as u64;
            src = &src[chunk..];
        }
    }

    /// Fills `[addr, addr + len)` with a deterministic pattern derived
    /// from the address — handy for preparing DMA source buffers.
    pub fn fill_pattern(&mut self, addr: u64, len: usize) {
        let data: Vec<u8> = (0..len as u64).map(|i| pattern_byte(addr + i)).collect();
        self.write(addr, &data);
    }

    /// Checks that `[addr, addr + len)` holds the [`Self::fill_pattern`]
    /// for `source_addr` (i.e. the data was copied from there).
    pub fn verify_pattern(&self, addr: u64, source_addr: u64, len: usize) -> bool {
        let data = self.read(addr, len);
        data.iter()
            .enumerate()
            .all(|(i, &b)| b == pattern_byte(source_addr + i as u64))
    }
}

impl sim::persist::PersistValue for SparseMemory {
    /// Pages serialize sorted by page number, so the byte stream is
    /// independent of allocation order. The last-page cache is
    /// performance-only state and restarts cold.
    fn save_value(&self, w: &mut sim::persist::SnapshotWriter) {
        w.put_usize(self.index.len());
        let mut pages: Vec<(u64, u32)> = self.index.iter().map(|(&p, &f)| (p, f)).collect();
        pages.sort_unstable_by_key(|&(p, _)| p);
        for (page, frame) in pages {
            w.put_u64(page);
            w.put_bytes(&self.frames[frame as usize][..]);
        }
    }

    fn load_value(
        r: &mut sim::persist::SnapshotReader<'_>,
    ) -> Result<Self, sim::persist::PersistError> {
        let n = r.take_usize()?;
        if n > r.remaining() {
            return Err(sim::persist::PersistError::Corrupt(
                "page count exceeds stream",
            ));
        }
        let mut mem = SparseMemory::new();
        for _ in 0..n {
            let page = r.take_u64()?;
            let data = r.take_bytes()?;
            if data.len() != PAGE_SIZE {
                return Err(sim::persist::PersistError::Corrupt("page frame size"));
            }
            let f = mem.frames.len() as u32;
            let mut frame = Box::new([0u8; PAGE_SIZE]);
            frame.copy_from_slice(data);
            mem.frames.push(frame);
            mem.index.insert(page, f);
        }
        Ok(mem)
    }
}

/// The deterministic byte pattern used by [`SparseMemory::fill_pattern`].
pub fn pattern_byte(addr: u64) -> u8 {
    // A cheap mix so adjacent addresses differ and aliasing is caught.
    let x = addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (x >> 56) as u8 ^ (addr as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let m = SparseMemory::new();
        assert_eq!(m.read(0xDEAD_BEEF, 8), vec![0; 8]);
        assert_eq!(m.frames.len(), 0);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut m = SparseMemory::new();
        m.write(100, &[9, 8, 7]);
        assert_eq!(m.read(100, 3), vec![9, 8, 7]);
        assert_eq!(m.read(99, 5), vec![0, 9, 8, 7, 0]);
    }

    #[test]
    fn cross_page_write_and_read() {
        let mut m = SparseMemory::new();
        let addr = 0x1000 - 2; // straddles the first page boundary
        m.write(addr, &[1, 2, 3, 4]);
        assert_eq!(m.read(addr, 4), vec![1, 2, 3, 4]);
        assert_eq!(m.frames.len(), 2);
    }

    #[test]
    fn overwrite_updates_bytes() {
        let mut m = SparseMemory::new();
        m.write(0, &[1, 1, 1, 1]);
        m.write(1, &[2, 2]);
        assert_eq!(m.read(0, 4), vec![1, 2, 2, 1]);
    }

    #[test]
    fn read_into_matches_read() {
        let mut m = SparseMemory::new();
        m.fill_pattern(0x0FF0, 64); // straddles a page boundary
        let mut buf = [0xAAu8; 64];
        m.read_into(0x0FF0, &mut buf);
        assert_eq!(buf.to_vec(), m.read(0x0FF0, 64));
        // Unallocated span reads zero through the buffered path too.
        let mut hole = [0x55u8; 16];
        m.read_into(0x8000_0000, &mut hole);
        assert_eq!(hole, [0u8; 16]);
    }

    #[test]
    fn cached_path_sees_later_writes() {
        let mut m = SparseMemory::new();
        m.write(0x2000, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        m.read_into(0x2000, &mut buf); // warm the last-page cache
        m.write(0x2001, &[9]);
        m.read_into(0x2000, &mut buf);
        assert_eq!(buf, [1, 9, 3, 4]);
    }

    #[test]
    fn pattern_fill_and_verify() {
        let mut m = SparseMemory::new();
        m.fill_pattern(0x4000, 256);
        assert!(m.verify_pattern(0x4000, 0x4000, 256));
        // Copy elsewhere and verify against the source address.
        let data = m.read(0x4000, 256);
        m.write(0x9000, &data);
        assert!(m.verify_pattern(0x9000, 0x4000, 256));
        // A corrupted byte is caught.
        m.write(0x9003, &[0xFF]);
        assert!(!m.verify_pattern(0x9000, 0x4000, 256));
    }

    #[test]
    fn pattern_bytes_vary() {
        let distinct: std::collections::HashSet<u8> = (0u64..64).map(pattern_byte).collect();
        assert!(distinct.len() > 16, "pattern should not be constant");
    }

    #[test]
    fn large_span_read() {
        let mut m = SparseMemory::new();
        m.fill_pattern(0, 3 * 4096 + 17);
        let data = m.read(0, 3 * 4096 + 17);
        assert_eq!(data.len(), 3 * 4096 + 17);
        assert!(m.verify_pattern(0, 0, 3 * 4096 + 17));
    }
}
