//! The simulated 64-bit address space: paged storage with copy-on-write
//! forking.
//!
//! The paper's runtime replicates heap storage by remapping virtual pages
//! with copy-on-write protection (§5.1). This module gives the interpreter
//! the same capability in safe Rust: an [`AddressSpace`] is a map from page
//! numbers to reference-counted 4 KiB pages. [`AddressSpace::fork`] clones
//! the map (O(#pages), sharing every page); the first write to a shared
//! page copies it (`Arc::make_mut`) — exactly the OS's COW fault, in user
//! space.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Size of a simulated page in bytes.
pub const PAGE_SIZE: u64 = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// One simulated page.
pub type Page = [u8; PAGE_SIZE as usize];

/// Base of the (untagged) globals region.
pub const GLOBAL_BASE: u64 = 0x0000_1000_0000;
/// Base of the (untagged) stack region used for allocas.
pub const STACK_BASE: u64 = 0x0000_2000_0000;
/// Base of the (untagged) general `malloc` region.
pub const MALLOC_BASE: u64 = 0x0000_4000_0000;

/// An Fx-style hasher for integer keys (page numbers, addresses, sizes):
/// one multiply per word, rotated so the bits the table indexes by depend
/// on every key bit. Keys here are never attacker-controlled, so the
/// standard library's DoS-resistant SipHash buys nothing and costs a
/// multiple of this on every page lookup.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher(u64);

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed by integers, hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A paged, copy-on-write, byte-addressed 64-bit address space.
///
/// Reads from unmapped pages return zeros; writes materialize pages on
/// demand. Addresses below [`PAGE_SIZE`] form a null guard page — accessing
/// them is a fault surfaced by the interpreter, not here.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    pages: FxHashMap<u64, Arc<Page>>,
    /// Allocator of the untagged stack region (allocas). It lives with the
    /// memory it manages, so an interpreter resumed over this space (e.g.
    /// sequential recovery) continues the caller's allocations instead of
    /// handing out the caller's live objects a second time.
    pub(crate) stack: RegionAllocator,
    /// Allocator of the untagged `malloc` region (see `stack`).
    pub(crate) malloc: RegionAllocator,
}

impl Default for AddressSpace {
    fn default() -> AddressSpace {
        AddressSpace {
            pages: FxHashMap::default(),
            stack: RegionAllocator::new(STACK_BASE, MALLOC_BASE),
            malloc: RegionAllocator::new(MALLOC_BASE, MALLOC_BASE + (1 << 40)),
        }
    }
}

impl AddressSpace {
    /// An empty address space.
    pub fn new() -> AddressSpace {
        AddressSpace::default()
    }

    /// Fork this address space: the child shares every page
    /// copy-on-write with `self` and starts from a copy of its stack and
    /// `malloc` allocators.
    ///
    /// ```
    /// use privateer_vm::mem::AddressSpace;
    /// let mut parent = AddressSpace::new();
    /// parent.write_bytes(0x10_000, b"hello");
    /// let mut child = parent.fork();
    /// child.write_bytes(0x10_000, b"world");
    /// let mut buf = [0u8; 5];
    /// parent.read_bytes(0x10_000, &mut buf);
    /// assert_eq!(&buf, b"hello"); // parent unaffected
    /// ```
    pub fn fork(&self) -> AddressSpace {
        AddressSpace {
            pages: self.pages.clone(),
            stack: self.stack.clone(),
            malloc: self.malloc.clone(),
        }
    }

    /// Number of pages currently materialized.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Read `buf.len()` bytes starting at `addr`. Unmapped bytes read as 0.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr + done as u64;
            let page_no = a >> PAGE_SHIFT;
            let off = (a & (PAGE_SIZE - 1)) as usize;
            let n = (buf.len() - done).min(PAGE_SIZE as usize - off);
            match self.pages.get(&page_no) {
                Some(p) => buf[done..done + n].copy_from_slice(&p[off..off + n]),
                None => buf[done..done + n].fill(0),
            }
            done += n;
        }
    }

    /// Write `data` starting at `addr`, materializing and copying pages as
    /// needed.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let mut done = 0usize;
        while done < data.len() {
            let a = addr + done as u64;
            let page_no = a >> PAGE_SHIFT;
            let off = (a & (PAGE_SIZE - 1)) as usize;
            let n = (data.len() - done).min(PAGE_SIZE as usize - off);
            let page = self
                .pages
                .entry(page_no)
                .or_insert_with(|| Arc::new([0u8; PAGE_SIZE as usize]));
            let page = Arc::make_mut(page);
            page[off..off + n].copy_from_slice(&data[done..done + n]);
            done += n;
        }
    }

    /// Fill `len` bytes starting at `addr` with `byte`.
    pub fn fill(&mut self, addr: u64, len: u64, byte: u8) {
        // Page-at-a-time to avoid a large temporary.
        let mut done = 0u64;
        while done < len {
            let a = addr + done;
            let page_no = a >> PAGE_SHIFT;
            let off = (a & (PAGE_SIZE - 1)) as usize;
            let n = ((len - done) as usize).min(PAGE_SIZE as usize - off);
            if byte == 0 && !self.pages.contains_key(&page_no) {
                // Unmapped already reads as zero.
                done += n as u64;
                continue;
            }
            let page = self
                .pages
                .entry(page_no)
                .or_insert_with(|| Arc::new([0u8; PAGE_SIZE as usize]));
            let page = Arc::make_mut(page);
            page[off..off + n].fill(byte);
            done += n as u64;
        }
    }

    /// The bytes `addr..addr + N` when they lie in one materialized page
    /// (`Some(None)`: one unmapped page, reading as zeros), or `None` when
    /// they straddle a page boundary.
    #[inline]
    fn in_page<const N: usize>(&self, addr: u64) -> Option<Option<[u8; N]>> {
        let off = (addr & (PAGE_SIZE - 1)) as usize;
        if off + N > PAGE_SIZE as usize {
            return None;
        }
        Some(self.pages.get(&(addr >> PAGE_SHIFT)).map(|p| {
            let mut b = [0u8; N];
            b.copy_from_slice(&p[off..off + N]);
            b
        }))
    }

    /// Read `N` bytes, on one page without a loop.
    #[inline]
    fn read_array<const N: usize>(&self, addr: u64) -> [u8; N] {
        match self.in_page::<N>(addr) {
            Some(b) => b.unwrap_or([0; N]),
            None => {
                let mut b = [0u8; N];
                self.read_bytes(addr, &mut b);
                b
            }
        }
    }

    /// Write `N` bytes, on one page without a loop.
    #[inline]
    fn write_array<const N: usize>(&mut self, addr: u64, b: [u8; N]) {
        let off = (addr & (PAGE_SIZE - 1)) as usize;
        if off + N > PAGE_SIZE as usize {
            return self.write_bytes(addr, &b);
        }
        let page = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Arc::new([0u8; PAGE_SIZE as usize]));
        Arc::make_mut(page)[off..off + N].copy_from_slice(&b);
    }

    /// Read one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.read_array::<1>(addr)[0]
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        self.write_array(addr, [v]);
    }

    /// Read a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_array(addr))
    }

    /// Write a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        self.write_array(addr, v.to_le_bytes());
    }

    /// Read a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_array(addr))
    }

    /// Write a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write_array(addr, v.to_le_bytes());
    }

    /// Read a little-endian `i64`.
    pub fn read_i64(&self, addr: u64) -> i64 {
        self.read_u64(addr) as i64
    }

    /// Read a little-endian `f64`.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Write a little-endian `f64`.
    pub fn write_f64(&mut self, addr: u64, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    /// The materialized page containing `addr`, if any. `None` means the
    /// whole page reads as zeros.
    pub fn page(&self, addr: u64) -> Option<&Page> {
        self.pages.get(&(addr >> PAGE_SHIFT)).map(|p| &**p)
    }

    /// A cheap reference-counted handle to the materialized page
    /// containing `addr`, if any — the zero-copy way to ship a page into
    /// a checkpoint contribution.
    pub fn page_arc(&self, addr: u64) -> Option<Arc<Page>> {
        self.pages.get(&(addr >> PAGE_SHIFT)).map(Arc::clone)
    }

    /// Mutable access to the page containing `addr`, materializing a zero
    /// page if absent and copying a shared one (the COW fault).
    ///
    /// Word-granular scans use [`Self::page`] first and only take this
    /// mutable path when a byte actually changes, so read-only validation
    /// never materializes or copies pages.
    pub fn page_make_mut(&mut self, addr: u64) -> &mut Page {
        let page = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Arc::new([0u8; PAGE_SIZE as usize]));
        Arc::make_mut(page)
    }

    /// Materialized pages whose base address lies in `[lo, hi)`, as
    /// `(page_base, page)` pairs in ascending address order.
    pub fn pages_in_range(&self, lo: u64, hi: u64) -> Vec<(u64, Arc<Page>)> {
        let mut out: Vec<(u64, Arc<Page>)> = self
            .pages
            .iter()
            .filter_map(|(&no, p)| {
                let base = no << PAGE_SHIFT;
                (base >= lo && base < hi).then(|| (base, Arc::clone(p)))
            })
            .collect();
        out.sort_by_key(|&(base, _)| base);
        out
    }

    /// Replace or insert a whole page by its base address.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not page-aligned.
    pub fn install_page(&mut self, base: u64, page: Arc<Page>) {
        assert_eq!(base & (PAGE_SIZE - 1), 0, "page base must be aligned");
        self.pages.insert(base >> PAGE_SHIFT, page);
    }

    /// Drop every materialized page whose base lies in `[lo, hi)` (the
    /// range reverts to zeros).
    pub fn clear_range(&mut self, lo: u64, hi: u64) {
        self.pages.retain(|&no, _| {
            let base = no << PAGE_SHIFT;
            !(base >= lo && base < hi)
        });
    }

    /// Whether two address spaces have byte-identical contents in `[lo, hi)`
    /// (missing pages compare as zeros).
    pub fn range_eq(&self, other: &AddressSpace, lo: u64, hi: u64) -> bool {
        let mut bases: Vec<u64> = self
            .pages_in_range(lo, hi)
            .into_iter()
            .map(|(b, _)| b)
            .chain(other.pages_in_range(lo, hi).into_iter().map(|(b, _)| b))
            .collect();
        bases.sort_unstable();
        bases.dedup();
        let zero = [0u8; PAGE_SIZE as usize];
        for base in bases {
            let a = self
                .pages
                .get(&(base >> PAGE_SHIFT))
                .map(|p| &**p)
                .unwrap_or(&zero);
            let b = other
                .pages
                .get(&(base >> PAGE_SHIFT))
                .map(|p| &**p)
                .unwrap_or(&zero);
            if a != b {
                return false;
            }
        }
        true
    }
}

/// A simple allocator handing out blocks from a fixed address range of an
/// [`AddressSpace`].
///
/// Allocation is bump-pointer with size-class free lists; all blocks are
/// 16-byte aligned. The allocator stores no metadata in the simulated
/// memory itself, so distinct allocators can manage distinct ranges of one
/// space.
#[derive(Debug, Clone)]
pub struct RegionAllocator {
    base: u64,
    end: u64,
    next: u64,
    free: FxHashMap<u64, Vec<u64>>,
    sizes: FxHashMap<u64, u64>,
    /// Total bytes currently live.
    pub live_bytes: u64,
    /// Count of live allocations.
    pub live_count: u64,
}

/// Error returned when a [`RegionAllocator`] operation fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// The region is exhausted.
    OutOfMemory,
    /// `free` of an address this allocator did not hand out.
    BadFree(u64),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory => write!(f, "region allocator out of memory"),
            AllocError::BadFree(a) => write!(f, "free of unallocated address {a:#x}"),
        }
    }
}

impl std::error::Error for AllocError {}

impl RegionAllocator {
    /// An allocator over `[base, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn new(base: u64, end: u64) -> RegionAllocator {
        assert!(base < end, "empty allocator range");
        RegionAllocator {
            base,
            end,
            next: base.max(16), // never hand out address 0
            free: FxHashMap::default(),
            sizes: FxHashMap::default(),
            live_bytes: 0,
            live_count: 0,
        }
    }

    /// Start of the managed range.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// End (exclusive) of the managed range.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Allocate `size` bytes (zero-size allocations are rounded up to 1).
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] if the region is exhausted.
    pub fn alloc(&mut self, size: u64) -> Result<u64, AllocError> {
        let rounded = round_up(size.max(1), 16);
        let addr = match self.free.get_mut(&rounded).and_then(Vec::pop) {
            Some(a) => a,
            None => {
                let a = self.next;
                if a + rounded > self.end {
                    return Err(AllocError::OutOfMemory);
                }
                self.next = a + rounded;
                a
            }
        };
        self.sizes.insert(addr, rounded);
        self.live_bytes += rounded;
        self.live_count += 1;
        Ok(addr)
    }

    /// Free a previously allocated block.
    ///
    /// # Errors
    ///
    /// [`AllocError::BadFree`] for addresses not currently allocated.
    pub fn free(&mut self, addr: u64) -> Result<(), AllocError> {
        match self.sizes.remove(&addr) {
            Some(size) => {
                self.free.entry(size).or_default().push(addr);
                self.live_bytes -= size;
                self.live_count -= 1;
                Ok(())
            }
            None => Err(AllocError::BadFree(addr)),
        }
    }

    /// Size of the live block at `addr`, if any.
    pub fn size_of(&self, addr: u64) -> Option<u64> {
        self.sizes.get(&addr).copied()
    }

    /// Forget all allocations (the arena-reset operation used for
    /// short-lived heaps between iterations).
    pub fn reset(&mut self) {
        self.next = self.base.max(16);
        self.free.clear();
        self.sizes.clear();
        self.live_bytes = 0;
        self.live_count = 0;
    }

    /// Highest address handed out so far (exclusive).
    pub fn high_water(&self) -> u64 {
        self.next
    }
}

fn round_up(v: u64, align: u64) -> u64 {
    (v + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = AddressSpace::new();
        let mut buf = [7u8; 16];
        m.read_bytes(0x5000, &mut buf);
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(m.read_u64(0xdead_beef), 0);
    }

    #[test]
    fn rw_across_page_boundary() {
        let mut m = AddressSpace::new();
        let addr = 2 * PAGE_SIZE - 3;
        m.write_bytes(addr, &[1, 2, 3, 4, 5, 6]);
        let mut buf = [0u8; 6];
        m.read_bytes(addr, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 5, 6]);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn scalar_round_trips() {
        let mut m = AddressSpace::new();
        m.write_u64(0x8000, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(0x8000), 0x0123_4567_89ab_cdef);
        m.write_f64(0x8008, -2.5);
        assert_eq!(m.read_f64(0x8008), -2.5);
        assert_eq!(m.read_i64(0x8000), 0x0123_4567_89ab_cdefu64 as i64);
        m.write_u8(0x8010, 0xAA);
        assert_eq!(m.read_u8(0x8010), 0xAA);
    }

    #[test]
    fn page_accessors() {
        let mut m = AddressSpace::new();
        assert!(m.page(0x5000).is_none());
        // page_make_mut materializes a zero page; the index is the offset
        // within the page, regardless of which in-page address named it.
        m.page_make_mut(0x5abc)[4] = 9;
        assert_eq!(m.read_u8(0x5004), 9);
        assert_eq!(m.page(0x5abc).expect("materialized")[4], 9);
        // page_arc shares the underlying page rather than copying it.
        assert!(m.page_arc(0x6000).is_none());
        let handle = m.page_arc(0x5abc).expect("materialized");
        assert!(std::ptr::eq(&*handle, m.page(0x5000).unwrap()));
        // Mutating through page_make_mut does not leak into a fork.
        let child = m.fork();
        m.page_make_mut(0x5000)[0] = 1;
        assert_eq!(child.read_u8(0x5000), 0);
        assert_eq!(m.read_u8(0x5000), 1);
    }

    #[test]
    fn fork_is_copy_on_write_both_ways() {
        let mut a = AddressSpace::new();
        a.write_u64(0x10_000, 1);
        let mut b = a.fork();
        // Writes in either space are invisible to the other.
        b.write_u64(0x10_000, 2);
        a.write_u64(0x10_008, 3);
        assert_eq!(a.read_u64(0x10_000), 1);
        assert_eq!(b.read_u64(0x10_000), 2);
        assert_eq!(b.read_u64(0x10_008), 0);
    }

    #[test]
    fn fork_shares_pages_until_write() {
        let mut a = AddressSpace::new();
        a.write_u64(0x10_000, 1);
        let b = a.fork();
        // Same underlying Arc until a write happens.
        let pa = a.pages_in_range(0x10_000, 0x11_000);
        let pb = b.pages_in_range(0x10_000, 0x11_000);
        assert!(Arc::ptr_eq(&pa[0].1, &pb[0].1));
    }

    #[test]
    fn fill_and_clear_range() {
        let mut m = AddressSpace::new();
        m.fill(0x3000, 8192, 0xFF);
        assert_eq!(m.read_u8(0x3000), 0xFF);
        assert_eq!(m.read_u8(0x3000 + 8191), 0xFF);
        assert_eq!(m.read_u8(0x3000 + 8192), 0);
        m.clear_range(0x3000, 0x3000 + 8192);
        assert_eq!(m.read_u8(0x3000), 0);
        // Zero fill of unmapped pages stays unmapped.
        let before = m.page_count();
        m.fill(0x100_000, 4096, 0);
        assert_eq!(m.page_count(), before);
    }

    #[test]
    fn range_eq_ignores_materialization() {
        let mut a = AddressSpace::new();
        let b = AddressSpace::new();
        a.fill(0x2000, 64, 0); // materialize nothing (zero fill skips)
        assert!(a.range_eq(&b, 0, 1 << 40));
        a.write_u8(0x2000, 1);
        assert!(!a.range_eq(&b, 0, 1 << 40));
        a.write_u8(0x2000, 0); // back to zero: page exists but is zero
        assert!(a.range_eq(&b, 0, 1 << 40));
    }

    #[test]
    fn allocator_basics() {
        let mut a = RegionAllocator::new(0x1000, 0x10_000);
        let p = a.alloc(24).unwrap();
        let q = a.alloc(24).unwrap();
        assert_ne!(p, q);
        assert_eq!(p % 16, 0);
        assert_eq!(a.size_of(p), Some(32));
        assert_eq!(a.live_count, 2);
        a.free(p).unwrap();
        assert_eq!(a.live_count, 1);
        // Reuse freed block of same size class.
        let r = a.alloc(20).unwrap();
        assert_eq!(r, p);
        assert_eq!(a.free(0xdead), Err(AllocError::BadFree(0xdead)));
    }

    #[test]
    fn allocator_exhaustion() {
        let mut a = RegionAllocator::new(0x1000, 0x1040);
        a.alloc(16).unwrap();
        a.alloc(16).unwrap();
        assert_eq!(a.alloc(64), Err(AllocError::OutOfMemory));
    }

    #[test]
    fn allocator_reset() {
        let mut a = RegionAllocator::new(0x1000, 0x10_000);
        let p = a.alloc(16).unwrap();
        a.reset();
        assert_eq!(a.live_count, 0);
        let q = a.alloc(16).unwrap();
        assert_eq!(p, q);
    }
}
