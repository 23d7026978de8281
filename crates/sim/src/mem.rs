//! Simulated device (global) memory with a bump allocator and
//! footprint tracking.

use std::fmt;

/// Byte-addressed simulated device memory.
///
/// Allocation is append-only within a kernel sequence (networks allocate
/// weights once, then ping-pong activation buffers); the high-water mark is
/// the "Max Device Memory Usage" the paper's Figure 11 reports via
/// `nvprof`.
#[derive(Clone, Default)]
pub struct GlobalMemory {
    data: Vec<u8>,
    next: u32,
    high_water: u32,
}

impl GlobalMemory {
    /// Alignment of every allocation, matching `cudaMalloc`'s 256-byte
    /// guarantee.
    pub const ALIGN: u32 = 256;

    /// An empty memory.
    pub fn new() -> Self {
        GlobalMemory {
            data: Vec::new(),
            // Keep address 0 unused so it can act as a null sentinel.
            next: Self::ALIGN,
            high_water: 0,
        }
    }

    /// Allocates `bytes` and returns the base address.
    ///
    /// # Panics
    ///
    /// Panics if the 4 GiB simulated address space is exhausted.
    pub fn alloc(&mut self, bytes: u32) -> u32 {
        let base = self.next;
        let end = base
            .checked_add(bytes)
            .and_then(|e| e.checked_next_multiple_of(Self::ALIGN))
            .expect("simulated device memory exhausted (4 GiB)");
        self.next = end;
        self.high_water = self.high_water.max(end);
        if self.data.len() < end as usize {
            self.data.resize(end as usize, 0);
        }
        base
    }

    /// Releases everything allocated after `mark` (obtained from
    /// [`mark`](Self::mark)). Networks use this to reuse activation
    /// scratch space between layers while keeping weights resident —
    /// the high-water mark is unaffected.
    pub fn release_to(&mut self, mark: u32) {
        assert!(mark <= self.next, "release_to mark {mark} beyond allocation point {}", self.next);
        self.next = mark.max(Self::ALIGN);
    }

    /// Current allocation point, for use with [`release_to`](Self::release_to).
    pub fn mark(&self) -> u32 {
        self.next
    }

    /// Peak bytes ever allocated (Figure 11's metric).
    pub fn high_water_bytes(&self) -> u64 {
        self.high_water as u64
    }

    /// Currently allocated bytes.
    pub fn allocated_bytes(&self) -> u64 {
        self.next.saturating_sub(Self::ALIGN) as u64
    }

    /// Whether every `bytes`-wide access that starts in `lo..=hi` lies
    /// inside the backing store and above the null page.
    pub(crate) fn in_bounds(&self, lo: u32, hi: u32, bytes: u32) -> bool {
        (hi as usize) + (bytes as usize) <= self.data.len() && lo >= Self::ALIGN
    }

    fn check(&self, addr: u32, bytes: u32) {
        assert!(
            self.in_bounds(addr, addr, bytes),
            "device memory access out of bounds: addr {addr:#x} len {bytes} (allocated {:#x})",
            self.data.len()
        );
    }

    /// [`read_u32`](Self::read_u32) for a caller that has already tested
    /// [`in_bounds`](Self::in_bounds) for a range holding `addr`.
    pub(crate) fn load_u32(&self, addr: u32) -> u32 {
        let i = addr as usize;
        u32::from_le_bytes([self.data[i], self.data[i + 1], self.data[i + 2], self.data[i + 3]])
    }

    /// [`write_u32`](Self::write_u32) after a passed `in_bounds` test.
    pub(crate) fn store_u32(&mut self, addr: u32, value: u32) {
        let i = addr as usize;
        self.data[i..i + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// [`read_u16`](Self::read_u16) after a passed `in_bounds` test.
    pub(crate) fn load_u16(&self, addr: u32) -> u16 {
        let i = addr as usize;
        u16::from_le_bytes([self.data[i], self.data[i + 1]])
    }

    /// [`write_u16`](Self::write_u16) after a passed `in_bounds` test.
    pub(crate) fn store_u16(&mut self, addr: u32, value: u16) {
        let i = addr as usize;
        self.data[i..i + 2].copy_from_slice(&value.to_le_bytes());
    }

    /// Backing-store size in bytes (the largest valid address bound).
    pub(crate) fn size_bytes(&self) -> usize {
        self.data.len()
    }

    /// Bounds-checked word read that returns `None` instead of panicking —
    /// memo-replay probe verification must tolerate a memory that shrank or
    /// was laid out differently since the recording.
    pub(crate) fn try_read_u32(&self, addr: u32) -> Option<u32> {
        let i = addr as usize;
        if addr < Self::ALIGN || i + 4 > self.data.len() {
            return None;
        }
        Some(u32::from_le_bytes([self.data[i], self.data[i + 1], self.data[i + 2], self.data[i + 3]]))
    }

    /// Reads a 32-bit word.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside every allocation (a kernel bug).
    pub fn read_u32(&self, addr: u32) -> u32 {
        self.check(addr, 4);
        self.load_u32(addr)
    }

    /// Writes a 32-bit word.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside every allocation (a kernel bug).
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        self.check(addr, 4);
        self.store_u32(addr, value);
    }

    /// Reads a 16-bit word.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of bounds.
    pub fn read_u16(&self, addr: u32) -> u16 {
        self.check(addr, 2);
        self.load_u16(addr)
    }

    /// Writes a 16-bit word.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of bounds.
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        self.check(addr, 2);
        self.store_u16(addr, value);
    }

    /// Copies a float slice into device memory at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_f32s(&mut self, addr: u32, values: &[f32]) {
        self.check(addr, (values.len() * 4) as u32);
        let base = addr as usize;
        for (k, v) in values.iter().enumerate() {
            self.data[base + k * 4..base + k * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Reads `len` floats starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_f32s(&self, addr: u32, len: usize) -> Vec<f32> {
        (0..len).map(|k| f32::from_bits(self.read_u32(addr + (k as u32) * 4))).collect()
    }
}

impl fmt::Debug for GlobalMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GlobalMemory")
            .field("allocated", &self.allocated_bytes())
            .field("high_water", &self.high_water_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut m = GlobalMemory::new();
        let a = m.alloc(100);
        let b = m.alloc(100);
        assert_eq!(a % GlobalMemory::ALIGN, 0);
        assert_eq!(b % GlobalMemory::ALIGN, 0);
        assert!(b >= a + 100);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = GlobalMemory::new();
        let a = m.alloc(16);
        m.write_f32s(a, &[1.5, -2.25]);
        assert_eq!(m.read_f32s(a, 2), vec![1.5, -2.25]);
        m.write_u16(a + 8, 0xBEEF);
        assert_eq!(m.read_u16(a + 8), 0xBEEF);
    }

    #[test]
    fn high_water_survives_release() {
        let mut m = GlobalMemory::new();
        let _weights = m.alloc(1024);
        let mark = m.mark();
        let _scratch = m.alloc(4096);
        let peak = m.high_water_bytes();
        m.release_to(mark);
        let _scratch2 = m.alloc(128);
        assert_eq!(m.high_water_bytes(), peak);
        assert!(m.allocated_bytes() < peak);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_read_panics() {
        let m = GlobalMemory::new();
        m.read_u32(4096);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn null_page_is_protected() {
        let mut m = GlobalMemory::new();
        let _ = m.alloc(64);
        m.read_u32(0);
    }
}
