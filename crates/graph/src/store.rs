//! Graph section storage: owned vectors or borrowed mmap regions.
//!
//! Every array a [`crate::Graph`] carries (`row_index`, `col_index`,
//! weights, labels, prefix cumulatives) is a [`Section<T>`]: either an
//! owned `Vec<T>` (the classic in-heap path — builders and the legacy
//! binary loader) or a typed window into a shared read-only [`Region`]
//! backed by a memory-mapped packed file (`crate::packed`). `Section`
//! derefs to `&[T]`, so every accessor on `Graph` keeps its exact slice
//! signature and the engines' hot paths are storage-agnostic: they never
//! learn whether a row came from anonymous heap or from the page cache.
//!
//! The mapping itself comes from [`crate::sys`]. Non-Linux hosts (and
//! callers that ask for it) fall back to reading the file into an
//! **8-byte-aligned heap buffer** — a `Vec<u64>`, never a `Vec<u8>`,
//! because sections of `u64` are reinterpreted in place and a 1-aligned
//! buffer would be UB to cast.
//!
//! Safety invariants (DESIGN.md §10):
//! - a `Section` holds an `Arc<Region>`, so the mapping outlives every
//!   borrowed slice derived from it; `munmap` runs only when the last
//!   section (or graph) is dropped;
//! - section windows are validated at construction: in-bounds and
//!   aligned to `align_of::<T>()` (the packed format 8-aligns every
//!   section, which covers all lane types);
//! - regions are mapped `PROT_READ`/`MAP_PRIVATE`: nothing can write
//!   through them, so sharing `&[T]` across engine threads is sound
//!   (`Region` is `Send + Sync` for that reason);
//! - byte order is little-endian on disk; reinterpretation is only used
//!   on little-endian hosts (big-endian hosts take the decoding loader
//!   in `crate::packed`, which byte-swaps into owned sections).

use std::ops::Deref;
use std::sync::Arc;

use crate::sys::{self, Mapping};

/// Marker for element types a `Section` may reinterpret from raw mapped
/// bytes: fixed-layout primitive lanes with no invalid bit patterns.
pub trait Pod: Copy + 'static + private::Sealed {}

mod private {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

impl Pod for u8 {}
impl Pod for u32 {}
impl Pod for u64 {}

/// A shared read-only byte region: an `mmap(2)` of a packed graph file,
/// or an aligned heap buffer holding the same bytes (the portable
/// fallback, also used to exercise the borrowed-section machinery in
/// tests without a real mapping).
pub struct Region {
    ptr: *const u8,
    len: usize,
    backing: Backing,
}

enum Backing {
    /// A live `mmap` mapping, held for its drop, which unmaps it.
    Mmap(#[allow(dead_code)] Mapping),
    /// Heap bytes. `Vec<u64>`-backed so the base pointer is 8-aligned
    /// (the strictest alignment any section type needs); moving the Vec
    /// never moves its buffer, so `ptr` stays valid for the region's
    /// lifetime.
    Heap(#[allow(dead_code)] Vec<u64>),
}

// SAFETY: the region is read-only for its entire lifetime (PROT_READ
// mapping or a heap buffer nobody holds a `&mut` to), so concurrent
// shared access from any thread is sound.
unsafe impl Send for Region {}
unsafe impl Sync for Region {}

impl Region {
    /// Total bytes in the region.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether this region is a live `mmap` mapping (as opposed to the
    /// heap fallback).
    pub fn is_mapped(&self) -> bool {
        matches!(self.backing, Backing::Mmap(_))
    }

    /// All bytes of the region.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` points at `len` readable bytes for the region's
        // lifetime (mapping or owned heap buffer).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Map a file read-only. `force_heap` (or a non-Linux host, or an
    /// `mmap` failure) degrades to reading the file into an aligned heap
    /// buffer — same bytes, same `Section` machinery, no mapping.
    pub fn from_file(file: &std::fs::File, force_heap: bool) -> std::io::Result<Arc<Region>> {
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "file too large for this address space",
            ));
        }
        let len = len as usize;
        if !force_heap && len > 0 {
            if let Some(mapping) = sys::map_readonly(file, len) {
                return Ok(Arc::new(Region {
                    ptr: mapping.ptr(),
                    len,
                    backing: Backing::Mmap(mapping),
                }));
            }
        }
        Self::heap_from_file(file, len)
    }

    /// The heap path: read all `len` bytes into an 8-aligned buffer.
    fn heap_from_file(file: &std::fs::File, len: usize) -> std::io::Result<Arc<Region>> {
        use std::io::Read;
        let words = len.div_ceil(8);
        let mut buf: Vec<u64> = vec![0; words];
        // SAFETY: a `u64` buffer of `words` elements is at least `len`
        // valid, writable bytes; u8 has no alignment or validity
        // requirements.
        let bytes =
            unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), words * 8) };
        let mut reader = file;
        reader.read_exact(&mut bytes[..len])?;
        let ptr = buf.as_ptr().cast::<u8>();
        Ok(Arc::new(Region {
            ptr,
            len,
            backing: Backing::Heap(buf),
        }))
    }
}

impl std::fmt::Debug for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Region")
            .field("len", &self.len)
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

/// One typed array of a graph: owned, or a window into a [`Region`].
///
/// Derefs to `&[T]`, so call sites read it exactly like the `Vec<T>` it
/// replaced. Mutation goes through [`Section::to_mut`], which promotes a
/// mapped section to an owned copy first (copy-on-write — used by tests
/// and nothing on the hot path).
#[derive(Clone)]
pub struct Section<T: Pod> {
    repr: Repr<T>,
}

#[derive(Clone)]
enum Repr<T: Pod> {
    Owned(Vec<T>),
    Mapped {
        region: Arc<Region>,
        /// Byte offset of the window inside the region.
        offset: usize,
        /// Window length in elements.
        len: usize,
    },
}

impl<T: Pod> Section<T> {
    /// Borrow `len` elements of `region` starting at `byte_offset`.
    ///
    /// Validates bounds and alignment once here so the `Deref` can be a
    /// branch-free pointer cast forever after.
    pub fn from_region(region: &Arc<Region>, byte_offset: usize, len: usize) -> Option<Self> {
        let bytes = len.checked_mul(std::mem::size_of::<T>())?;
        let end = byte_offset.checked_add(bytes)?;
        if end > region.len() {
            return None;
        }
        // SAFETY of the later casts depends on this alignment check: the
        // region base is page- or 8-aligned, so offset alignment suffices.
        if !(region.ptr as usize + byte_offset).is_multiple_of(std::mem::align_of::<T>()) {
            return None;
        }
        Some(Self {
            repr: Repr::Mapped {
                region: Arc::clone(region),
                offset: byte_offset,
                len,
            },
        })
    }

    /// View as a slice (what `Deref` returns).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Owned(v) => v,
            Repr::Mapped {
                region,
                offset,
                len,
            } => {
                // SAFETY: bounds and alignment validated in
                // `from_region`; the region lives as long as `self`; T is
                // Pod so any bit pattern is a valid value.
                unsafe { std::slice::from_raw_parts(region.ptr.add(*offset).cast::<T>(), *len) }
            }
        }
    }

    /// Mutable access, promoting a mapped section to an owned copy.
    /// Only for construction-time fixups and tests — never on a walk
    /// hot path.
    pub fn to_mut(&mut self) -> &mut Vec<T> {
        if let Repr::Mapped { .. } = self.repr {
            self.repr = Repr::Owned(self.as_slice().to_vec());
        }
        match &mut self.repr {
            Repr::Owned(v) => v,
            Repr::Mapped { .. } => unreachable!("promoted above"),
        }
    }

    /// Whether this section borrows a region (vs owning its elements).
    pub fn is_borrowed(&self) -> bool {
        matches!(self.repr, Repr::Mapped { .. })
    }
}

impl<T: Pod> Deref for Section<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> From<Vec<T>> for Section<T> {
    fn from(v: Vec<T>) -> Self {
        Self {
            repr: Repr::Owned(v),
        }
    }
}

impl<T: Pod> Default for Section<T> {
    fn default() -> Self {
        Vec::new().into()
    }
}

impl<T: Pod + std::fmt::Debug> std::fmt::Debug for Section<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T: Pod + PartialEq> PartialEq for Section<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + Eq> Eq for Section<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("lightrw_store_{name}_{}", bytes.len()));
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        path
    }

    #[test]
    fn owned_section_behaves_like_its_vec() {
        let mut s: Section<u32> = vec![3, 1, 4, 1, 5].into();
        assert_eq!(&s[..], &[3, 1, 4, 1, 5]);
        assert_eq!(s.len(), 5);
        assert!(!s.is_borrowed());
        s.to_mut()[0] = 9;
        assert_eq!(s[0], 9);
    }

    #[test]
    fn region_windows_reinterpret_little_endian_lanes() {
        // 8 bytes of u64 = 7, then 4+4 bytes of u32s 40, 41.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice(&40u32.to_le_bytes());
        bytes.extend_from_slice(&41u32.to_le_bytes());
        let path = temp_file("windows", &bytes);
        for force_heap in [true, false] {
            let file = std::fs::File::open(&path).unwrap();
            let region = Region::from_file(&file, force_heap).unwrap();
            let words = Section::<u64>::from_region(&region, 0, 1).unwrap();
            assert_eq!(&words[..], &[7]);
            let lanes = Section::<u32>::from_region(&region, 8, 2).unwrap();
            assert_eq!(&lanes[..], &[40, 41]);
            // Heap fallback must report itself as unmapped; the mmap path
            // is mapped on Linux only.
            if force_heap {
                assert!(!region.is_mapped());
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_bounds_and_misaligned_windows_are_rejected() {
        let path = temp_file("bounds", &[0u8; 16]);
        let file = std::fs::File::open(&path).unwrap();
        let region = Region::from_file(&file, true).unwrap();
        assert!(Section::<u64>::from_region(&region, 0, 3).is_none()); // 24 > 16
        assert!(Section::<u64>::from_region(&region, 12, 1).is_none()); // unaligned
        assert!(Section::<u32>::from_region(&region, usize::MAX, 1).is_none()); // overflow
        assert!(Section::<u8>::from_region(&region, 0, 16).is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn to_mut_promotes_mapped_sections_copy_on_write() {
        let mut bytes = Vec::new();
        for x in [1u32, 2, 3] {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        let path = temp_file("cow", &bytes);
        let file = std::fs::File::open(&path).unwrap();
        let region = Region::from_file(&file, true).unwrap();
        let mut s = Section::<u32>::from_region(&region, 0, 3).unwrap();
        assert!(s.is_borrowed());
        let other = s.clone();
        s.to_mut()[1] = 99;
        assert_eq!(&s[..], &[1, 99, 3]);
        assert!(!s.is_borrowed());
        // The clone still reads the untouched region bytes.
        assert_eq!(&other[..], &[1, 2, 3]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_region() {
        let path = temp_file("empty", &[]);
        let file = std::fs::File::open(&path).unwrap();
        let region = Region::from_file(&file, false).unwrap();
        assert!(region.is_empty());
        let s = Section::<u64>::from_region(&region, 0, 0).unwrap();
        assert!(s.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sections_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Section<u64>>();
        assert_send_sync::<Region>();
    }
}
