use crate::hash::U64Map;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Sparse, paged byte-addressable memory.
///
/// Pages (4 KiB) are allocated lazily on first touch and zero-filled, so a
/// program may use any address without explicit mapping. Values are stored
/// little-endian. Pages are found by page number through [`crate::U64Hasher`].
///
/// # Examples
///
/// ```
/// use rvp_emu::Memory;
///
/// let mut m = Memory::new();
/// m.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u64(0x2000), 0); // untouched memory reads zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: U64Map<Box<[u8; PAGE_SIZE]>>,
}

impl Memory {
    /// Creates an empty memory (all zeroes).
    pub fn new() -> Memory {
        Memory::default()
    }

    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&(addr >> PAGE_SHIFT)).map(|p| &**p)
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages.entry(addr >> PAGE_SHIFT).or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        self.page_mut(addr)[off] = value;
    }

    /// Reads `n <= 8` bytes starting at `addr`, zero-extended into a u64.
    /// The access must not cross a page boundary unless it is composed of
    /// byte reads (this helper handles crossings correctly but slowly).
    pub fn read_bytes(&self, addr: u64, n: usize) -> u64 {
        debug_assert!(n <= 8);
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + n <= PAGE_SIZE {
            if let Some(p) = self.page(addr) {
                let mut buf = [0u8; 8];
                buf[..n].copy_from_slice(&p[off..off + n]);
                return u64::from_le_bytes(buf);
            }
            return 0;
        }
        let mut v = 0u64;
        for i in 0..n {
            v |= u64::from(self.read_u8(addr + i as u64)) << (8 * i);
        }
        v
    }

    /// Writes the low `n <= 8` bytes of `value` starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, value: u64, n: usize) {
        debug_assert!(n <= 8);
        let off = (addr as usize) & (PAGE_SIZE - 1);
        let bytes = value.to_le_bytes();
        if off + n <= PAGE_SIZE {
            self.page_mut(addr)[off..off + n].copy_from_slice(&bytes[..n]);
            return;
        }
        for (i, b) in bytes[..n].iter().enumerate() {
            self.write_u8(addr + i as u64, *b);
        }
    }

    /// Reads an aligned 64-bit word.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_bytes(addr, 8)
    }

    /// Writes an aligned 64-bit word.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, value, 8)
    }

    /// Reads an f64 stored at `addr`.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an f64 at `addr`.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Number of currently allocated pages (for tests and diagnostics).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_before_touch() {
        let m = Memory::new();
        assert_eq!(m.read_u64(0), 0);
        assert_eq!(m.read_u8(12345), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn round_trip_widths() {
        let mut m = Memory::new();
        m.write_bytes(0x100, 0x1122_3344_5566_7788, 8);
        assert_eq!(m.read_bytes(0x100, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.read_bytes(0x100, 4), 0x5566_7788);
        assert_eq!(m.read_bytes(0x100, 1), 0x88);
        m.write_bytes(0x200, 0xAB, 1);
        assert_eq!(m.read_u8(0x200), 0xAB);
        assert_eq!(m.read_u8(0x201), 0);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = (1 << 12) - 4; // last 4 bytes of page 0
        m.write_bytes(addr, 0x0102_0304_0506_0708, 8);
        assert_eq!(m.read_bytes(addr, 8), 0x0102_0304_0506_0708);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn cross_page_access_splits_bytes_between_the_pages() {
        let mut m = Memory::new();
        let addr = (3 << 12) - 3; // last 3 bytes of page 2
        m.write_bytes(addr, 0x8877_6655_4433_2211, 8);
        for i in 0..8u64 {
            assert_eq!(m.read_u8(addr + i), 0x11 * (i as u8 + 1), "byte {i}");
        }
        // Each page alone holds only its own part of the word.
        assert_eq!(m.read_bytes(addr, 3), 0x33_2211);
        assert_eq!(m.read_bytes(3 << 12, 5), 0x88_7766_5544);
        assert_eq!(m.read_u8((3 << 12) - 4), 0);
        assert_eq!(m.read_u8((3 << 12) + 5), 0);
    }

    #[test]
    fn a_clone_is_unaffected_by_later_stores_to_the_original() {
        let mut m = Memory::new();
        m.write_u64(0x1000, 1);
        m.write_u64(0x5000, 2);
        assert_eq!(m.read_u64(0x5000), 2);
        let snapshot = m.clone();
        m.write_u64(0x5000, 20);
        m.write_u64(0x1000, 10);
        m.write_u64(0x9000, 30);
        m.write_bytes((2 << 12) - 4, u64::MAX, 8);
        assert_eq!((snapshot.read_u64(0x1000), snapshot.read_u64(0x5000)), (1, 2));
        assert_eq!(snapshot.read_u64(0x9000), 0);
        assert_eq!(snapshot.read_bytes((2 << 12) - 4, 8), 0);
        assert_eq!(snapshot.page_count(), 2);
        // And the other way round: stores to the clone leave the
        // original alone.
        let mut copy = m.clone();
        copy.write_u64(0x5000, 99);
        assert_eq!(m.read_u64(0x5000), 20);
    }

    #[test]
    fn f64_round_trip() {
        let mut m = Memory::new();
        m.write_f64(0x300, -1.25e10);
        assert_eq!(m.read_f64(0x300), -1.25e10);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write_u64(0, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u8(0), 0x08);
        assert_eq!(m.read_u8(7), 0x01);
    }
}
