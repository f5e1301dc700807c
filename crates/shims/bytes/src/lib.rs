//! Minimal API-compatible stand-in for the [`bytes`] crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small slice of the `bytes` API it actually uses: cheaply
//! clonable [`Bytes`] views, an append-only [`BytesMut`] builder, and the
//! big-endian [`Buf`]/[`BufMut`] cursor traits. Semantics match the real
//! crate for every method provided here.
//!
//! A buffer is one heap block: a reference count and the capacity, then
//! the bytes. A [`BytesMut`] owns its block alone; [`BytesMut::freeze`]
//! hands the same block to the [`Bytes`] it returns, and every clone or
//! slice of that view counts one more reference on it. Building a buffer
//! and sharing it therefore costs one allocation, and a sender that
//! writes several fragments into one builder and slices the frozen
//! buffer pays one allocation for all of them.
//!
//! As in the real crate, an empty [`Bytes`] owns nothing: `new`, `default`,
//! empty conversions, empty slices and the freeze of a builder that never
//! allocated hold no buffer, so building, cloning and dropping one touches
//! neither the heap nor a reference count. Every beacon, ACK, NAK and
//! Commit carries such a payload.
//!
//! [`bytes`]: https://docs.rs/bytes

use std::alloc::{self, Layout};
use std::ptr::NonNull;
use std::sync::atomic::{self as atomic, AtomicUsize, Ordering};

/// What precedes the bytes of every block.
#[repr(C)]
struct Header {
    /// Handles sharing the block: 1 while a [`BytesMut`] owns it, then
    /// one per [`Bytes`] view.
    refs: AtomicUsize,
    /// Bytes of storage after the header.
    cap: usize,
}

/// Views beyond this many references abort, as `Arc` does: the count
/// must never wrap to a value that frees a block still in use.
const MAX_REFS: usize = isize::MAX as usize;

/// A pointer to a live block: a [`Header`] followed by `cap` bytes,
/// allocated with [`block_layout`]`(cap)`.
type Block = NonNull<Header>;

/// Layout of a block with `cap` bytes of storage.
fn block_layout(cap: usize) -> Layout {
    let size = std::mem::size_of::<Header>().checked_add(cap).expect("buffer size overflows");
    Layout::from_size_align(size, std::mem::align_of::<Header>()).expect("buffer size overflows")
}

/// A fresh block of `cap > 0` bytes, held once.
fn alloc_block(cap: usize) -> Block {
    debug_assert!(cap > 0, "an empty buffer owns no block");
    let layout = block_layout(cap);
    // SAFETY: the layout's size is at least that of the header, so it is
    // non-zero.
    let raw = unsafe { alloc::alloc(layout) }.cast::<Header>();
    let Some(block) = NonNull::new(raw) else { alloc::handle_alloc_error(layout) };
    // SAFETY: `raw` is a fresh allocation sized and aligned for a header.
    unsafe { raw.write(Header { refs: AtomicUsize::new(1), cap }) };
    block
}

/// The block's capacity. Like every function taking a [`Block`], it
/// relies on the caller holding a reference to it.
fn cap_of(block: Block) -> usize {
    // SAFETY: a `Block` points to a live, initialised header.
    unsafe { block.as_ref() }.cap
}

/// The first byte of the block's storage.
fn data_of(block: Block) -> *mut u8 {
    // SAFETY: the storage starts right after the header, inside the block.
    unsafe { block.as_ptr().add(1) }.cast::<u8>()
}

/// Free `block`.
///
/// # Safety
///
/// No handle may use `block` afterwards.
unsafe fn free_block(block: Block) {
    let layout = block_layout(cap_of(block));
    // SAFETY: the block came from `alloc_block`, or from the `realloc` in
    // `BytesMut::reserve`, with the layout of the capacity its header
    // records; the caller guarantees it is not used again.
    unsafe { alloc::dealloc(block.as_ptr().cast::<u8>(), layout) }
}

/// A cheaply clonable, immutable view into a shared byte buffer.
///
/// Three words: the scheduler carries one in every packet event.
#[derive(Default)]
pub struct Bytes {
    /// The shared block; `None` only for an empty view that owns nothing
    /// (then `start == end == 0`). Holds one of the block's references.
    block: Option<Block>,
    /// The view is `start..end` of the block's storage, inside what the
    /// builder wrote before it was frozen.
    start: usize,
    end: usize,
}

// SAFETY: a `Bytes` only reads its block's bytes, which nothing writes
// while a view exists (a builder gets the block back only as its sole
// handle), and shares the block through the atomic reference count, as
// `Arc<[u8]>` does; `start` and `end` are plain integers.
unsafe impl Send for Bytes {}
// SAFETY: as for `Send`: `&Bytes` reads the bytes and clones through the
// atomic count.
unsafe impl Sync for Bytes {}

impl Clone for Bytes {
    #[inline]
    fn clone(&self) -> Self {
        if let Some(block) = self.block {
            // SAFETY: this view holds a reference, so the header is live.
            let refs = unsafe { block.as_ref() }.refs.fetch_add(1, Ordering::Relaxed);
            if refs > MAX_REFS {
                std::process::abort();
            }
        }
        Bytes { block: self.block, start: self.start, end: self.end }
    }
}

impl Drop for Bytes {
    #[inline]
    fn drop(&mut self) {
        let Some(block) = self.block else { return };
        // SAFETY: this view holds a reference, so the header is live.
        // Release orders this handle's reads before the free; the last
        // handle's Acquire fence pairs with every other handle's Release.
        if unsafe { block.as_ref() }.refs.fetch_sub(1, Ordering::Release) == 1 {
            atomic::fence(Ordering::Acquire);
            // SAFETY: that was the last reference.
            unsafe { free_block(block) };
        }
    }
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// A buffer viewing a static slice (copied here; the real crate
    /// borrows, but callers only rely on value semantics).
    pub fn from_static(s: &'static [u8]) -> Self {
        Bytes::copy_from_slice(s)
    }

    /// Copy `s` into a fresh buffer.
    pub fn copy_from_slice(s: &[u8]) -> Self {
        let mut b = BytesMut::with_capacity(s.len());
        b.extend_from_slice(s);
        b.freeze()
    }

    /// Length of the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The viewed bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match self.block {
            // SAFETY: `start..end` lies within the bytes the builder wrote
            // (every constructor and narrowing keeps it there), and they
            // stay unchanged while this view holds its reference.
            Some(block) => unsafe {
                std::slice::from_raw_parts(data_of(block).add(self.start), self.len())
            },
            None => &[],
        }
    }

    /// A sub-view of `range` (relative to this view), sharing storage.
    /// An empty sub-view shares nothing, so it never pins the buffer.
    #[inline]
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len());
        if range.is_empty() {
            return Bytes::new();
        }
        let mut view = self.clone();
        view.end = self.start + range.end;
        view.start += range.start;
        view
    }

    /// Split off and return the first `at` bytes, advancing `self`.
    /// Splitting everything off moves the storage out and leaves `self`
    /// owning nothing.
    #[inline]
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len());
        if at == self.len() {
            return std::mem::take(self);
        }
        let front = self.slice(0..at);
        self.start += at;
        front
    }

    /// Reclaim the underlying storage as a [`BytesMut`] when this is the
    /// only outstanding handle; otherwise hand `self` back unchanged.
    /// Matches `bytes::Bytes::try_into_mut` semantics: success requires
    /// unique ownership, and the result views exactly the bytes this
    /// view did (capacity beyond the view is retained for reuse).
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        let Some(block) = self.block else { return Ok(BytesMut::new()) };
        // SAFETY: this view holds a reference, so the header is live.
        // Acquire pairs with the Release of handles dropped meanwhile.
        if unsafe { block.as_ref() }.refs.load(Ordering::Acquire) != 1 {
            return Err(self);
        }
        let this = std::mem::ManuallyDrop::new(self);
        let len = this.len();
        // SAFETY: this is the block's only handle, so nothing else reads
        // it; `start..end` is within its capacity, and `copy` allows the
        // overlap.
        unsafe { std::ptr::copy(data_of(block).add(this.start), data_of(block), len) };
        // The one reference passes to the builder, which owns it alone.
        Ok(BytesMut { block: Some(block), len, read: 0 })
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<str> for Bytes {
    fn eq(&self, other: &str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}
impl PartialEq<&str> for Bytes {
    fn eq(&self, other: &&str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}
impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}
impl PartialEq<Bytes> for &[u8] {
    fn eq(&self, other: &Bytes) -> bool {
        *self == other.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Copies into a block of the vector's capacity, which
    /// [`Bytes::try_into_mut`] hands back whole.
    fn from(v: Vec<u8>) -> Self {
        let mut b = BytesMut::with_capacity(v.capacity());
        b.extend_from_slice(&v);
        b.freeze()
    }
}
impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}
impl From<&str> for Bytes {
    fn from(s: &str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}
impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}
impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(s: &[u8; N]) -> Self {
        Bytes::copy_from_slice(s)
    }
}
impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().to_vec().into_iter()
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Default)]
pub struct BytesMut {
    /// The block, owned alone (its count is 1); `None` until the builder
    /// first needs capacity.
    block: Option<Block>,
    /// Bytes written, read ones included; at most the block's capacity.
    len: usize,
    /// Read cursor for the `Buf` impl (the real crate consumes from the
    /// front; only tests rely on this). At most `len`.
    read: usize,
}

// SAFETY: a `BytesMut` owns its block alone, as a `Vec<u8>` owns its
// buffer; `len` and `read` are plain integers.
unsafe impl Send for BytesMut {}
// SAFETY: `&BytesMut` only reads the bytes.
unsafe impl Sync for BytesMut {}

impl Drop for BytesMut {
    fn drop(&mut self) {
        if let Some(block) = self.block {
            // SAFETY: the builder is the block's only handle.
            unsafe { free_block(block) };
        }
    }
}

impl Clone for BytesMut {
    fn clone(&self) -> Self {
        let mut copy = BytesMut::with_capacity(self.len);
        copy.extend_from_slice(self.written());
        copy.read = self.read;
        copy
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}
impl Eq for BytesMut {}

impl BytesMut {
    /// An empty builder.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty builder with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { block: (cap > 0).then(|| alloc_block(cap)), len: 0, read: 0 }
    }

    /// Unread length.
    pub fn len(&self) -> usize {
        self.len - self.read
    }

    /// Whether nothing unread remains.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every byte written, read ones included.
    fn written(&self) -> &[u8] {
        match self.block {
            // SAFETY: the first `len` bytes of the block were written, and
            // the builder owns the block alone.
            Some(block) => unsafe { std::slice::from_raw_parts(data_of(block), self.len) },
            None => &[],
        }
    }

    /// [`written`](Self::written), mutably.
    fn written_mut(&mut self) -> &mut [u8] {
        match self.block {
            // SAFETY: as in `written`; `&mut self` makes the borrow unique.
            Some(block) => unsafe { std::slice::from_raw_parts_mut(data_of(block), self.len) },
            None => &mut [],
        }
    }

    /// Append a slice.
    #[inline]
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.reserve(s.len());
        if let Some(block) = self.block {
            // SAFETY: `reserve` left room for `s` after the `len` written
            // bytes, and `s` cannot overlap a block the builder owns
            // mutably.
            unsafe {
                std::ptr::copy_nonoverlapping(s.as_ptr(), data_of(block).add(self.len), s.len())
            };
            self.len += s.len();
        }
    }

    /// Reserve capacity for at least `additional` more bytes (growing by
    /// doubling, as `Vec` does).
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        let need = self.len.checked_add(additional).expect("buffer size overflows");
        if need > self.block.map_or(0, cap_of) {
            self.grow(need);
        }
    }

    /// Grow the block to at least `need` bytes (out of line: a builder
    /// sized up front never comes here).
    #[inline(never)]
    fn grow(&mut self, need: usize) {
        let cap = self.block.map_or(0, cap_of);
        let new_cap = need.max(cap.saturating_mul(2)).max(8);
        let grown = match self.block {
            None => alloc_block(new_cap),
            Some(block) => {
                let new_layout = block_layout(new_cap);
                // SAFETY: the block came from this allocator with the
                // layout of its capacity, the builder owns it alone, and
                // the new size is non-zero.
                let raw = unsafe {
                    alloc::realloc(
                        block.as_ptr().cast::<u8>(),
                        block_layout(cap),
                        new_layout.size(),
                    )
                };
                let Some(grown) = NonNull::new(raw.cast::<Header>()) else {
                    alloc::handle_alloc_error(new_layout)
                };
                // SAFETY: `realloc` kept the header; the builder owns it.
                unsafe { (*grown.as_ptr()).cap = new_cap };
                grown
            }
        };
        self.block = Some(grown);
    }

    /// Usable capacity from the current read position.
    pub fn capacity(&self) -> usize {
        self.block.map_or(0, cap_of) - self.read
    }

    /// Drop all contents (read and unread) without releasing storage.
    pub fn clear(&mut self) {
        self.len = 0;
        self.read = 0;
    }

    /// Truncate the unread region to at most `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.len = self.read + len;
        }
    }

    /// Resize the unread region to exactly `new_len` bytes, filling any
    /// growth with `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        let target = self.read + new_len;
        if target > self.len {
            self.reserve(target - self.len);
            let block = self.block.expect("reserve allocated");
            // SAFETY: `reserve` made `target` bytes of room; the builder
            // owns the block alone.
            unsafe { data_of(block).add(self.len).write_bytes(value, target - self.len) };
        }
        self.len = target;
    }

    /// Freeze into an immutable, shareable buffer: the builder's block,
    /// handed over as it is.
    pub fn freeze(self) -> Bytes {
        let this = std::mem::ManuallyDrop::new(self);
        // The builder's one reference passes to the view.
        match this.block {
            Some(block) => Bytes { block: Some(block), start: this.read, end: this.len },
            None => Bytes::new(),
        }
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.written()[self.read..]
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        let read = self.read;
        &mut self.written_mut()[read..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({:?})", &self[..])
    }
}

/// Read cursor over a byte source; integers decode big-endian, matching
/// the real `bytes` crate.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The current unread contiguous slice.
    fn chunk(&self) -> &[u8];
    /// Skip `n` bytes.
    fn advance(&mut self, n: usize);

    /// Copy `dst.len()` bytes out, advancing.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len());
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Read a big-endian u16.
    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    /// Read a big-endian u32.
    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    /// Read a big-endian u64.
    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }

    /// Read a big-endian i64.
    fn get_i64(&mut self) -> i64 {
        self.get_u64() as i64
    }

    /// Read a big-endian unsigned integer of `nbytes` bytes (≤ 8).
    fn get_uint(&mut self, nbytes: usize) -> u64 {
        assert!(nbytes <= 8);
        let mut v = 0u64;
        for _ in 0..nbytes {
            v = (v << 8) | self.get_u8() as u64;
        }
        v
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }
    #[inline]
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    #[inline]
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len());
        self.start += n;
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len());
        self.read += n;
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

/// Write cursor; integers encode big-endian, matching the real crate.
pub trait BufMut {
    /// Append a slice.
    fn put_slice(&mut self, s: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Append a big-endian u16.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a big-endian u32.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a big-endian u64.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a big-endian i64.
    fn put_i64(&mut self, v: i64) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append the low `nbytes` bytes of `v`, big-endian.
    fn put_uint(&mut self, v: u64, nbytes: usize) {
        assert!(nbytes <= 8);
        let be = v.to_be_bytes();
        self.put_slice(&be[8 - nbytes..]);
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_ints() {
        let mut b = BytesMut::new();
        b.put_u8(7);
        b.put_u16(0x0102);
        b.put_u32(0xDEADBEEF);
        b.put_u64(42);
        b.put_uint(0x0000_7766_5544_3322, 6);
        b.put_i64(-5);
        let mut r = b.freeze();
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16(), 0x0102);
        assert_eq!(r.get_u32(), 0xDEADBEEF);
        assert_eq!(r.get_u64(), 42);
        assert_eq!(r.get_uint(6), 0x0000_7766_5544_3322);
        assert_eq!(r.get_i64(), -5);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn slice_and_split() {
        let mut b = Bytes::from(b"hello world".to_vec());
        let hello = b.split_to(5);
        assert_eq!(hello, Bytes::from_static(b"hello"));
        assert_eq!(b.slice(1..6), Bytes::from_static(b"world"));
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn eq_across_types() {
        let b = Bytes::from("abc");
        assert_eq!(b, *b"abc".as_slice());
        assert!(b == b"abc".as_slice());
        assert_eq!(b.as_ref(), b"abc");
    }

    #[test]
    fn resize_truncate_clear_and_deref_mut() {
        let mut b = BytesMut::new();
        b.resize(8, 0);
        assert_eq!(b.len(), 8);
        b[..4].copy_from_slice(b"abcd");
        b.truncate(4);
        assert_eq!(&b[..], b"abcd");
        // truncate never grows
        b.truncate(100);
        assert_eq!(b.len(), 4);
        b.clear();
        assert!(b.is_empty());
        assert!(b.capacity() >= 8);
    }

    #[test]
    fn resize_respects_read_cursor() {
        let mut b = BytesMut::new();
        b.extend_from_slice(b"xxhello");
        b.advance(2);
        assert_eq!(&b[..], b"hello");
        b.resize(3, 0);
        assert_eq!(&b[..], b"hel");
        b.resize(5, b'!');
        assert_eq!(&b[..], b"hel!!");
    }

    #[test]
    fn try_into_mut_unique_and_shared() {
        // Unique handle: storage is reclaimed, view preserved.
        let b = Bytes::from(b"hello world".to_vec());
        let sliced = b.slice(6..11);
        drop(b); // slice must be the only handle left
        let m = sliced.try_into_mut().expect("unique handle reclaims");
        assert_eq!(&m[..], b"world");

        // Shared handle: reclaim fails and returns the original view.
        let b = Bytes::from(b"shared".to_vec());
        let clone = b.clone();
        let back = b.try_into_mut().expect_err("shared handle must fail");
        assert_eq!(back, clone);
        drop(clone);
        // Last handle standing succeeds again.
        let m = back.try_into_mut().expect("now unique");
        assert_eq!(&m[..], b"shared");
    }

    #[test]
    fn freeze_hands_over_the_block_and_slices_share_it() {
        let mut b = BytesMut::with_capacity(32);
        b.extend_from_slice(b"fragment-one");
        b.extend_from_slice(b"fragment-two");
        let at = b.as_ptr();
        let whole = b.freeze();
        assert_eq!(whole.as_ptr(), at, "freeze does not copy");
        let (one, two) = (whole.slice(0..12), whole.slice(12..24));
        drop(whole);
        assert_eq!((&one[..], &two[..]), (&b"fragment-one"[..], &b"fragment-two"[..]));
        assert_eq!(two.as_ptr(), at.wrapping_add(12), "a slice views the same block");
        let two = two.try_into_mut().expect_err("the first slice still holds the block");
        drop(one);
        let back = two.try_into_mut().expect("last handle");
        assert_eq!((&back[..], back.as_ptr()), (&b"fragment-two"[..], at));
        assert_eq!(back.capacity(), 32);
    }

    #[test]
    fn growth_keeps_the_bytes_and_the_read_cursor() {
        let mut b = BytesMut::new();
        assert_eq!(b.capacity(), 0);
        for i in 0..100u8 {
            b.put_u8(i);
        }
        b.advance(10);
        b.reserve(1_000);
        assert!(b.capacity() >= 1_000);
        assert_eq!(&b[..], &(10..100).collect::<Vec<u8>>()[..]);
        let copy = b.clone();
        assert_eq!(copy, b);
        let frozen = b.freeze();
        assert_eq!(&frozen[..], &copy[..]);
        // A frozen view outlives a builder that never shared its block.
        let mut c = copy;
        c.clear();
        assert!(c.is_empty());
        assert_eq!(frozen.len(), 90);
    }

    #[test]
    fn handles_cross_threads() {
        let b = Bytes::from(vec![5u8; 64]);
        let views: Vec<Bytes> = (0..4).map(|i| b.slice(i..i + 8)).collect();
        std::thread::scope(|s| {
            for v in views {
                s.spawn(move || assert_eq!(&v[..], &[5u8; 8][..]));
            }
        });
        assert!(b.try_into_mut().is_ok(), "every view the threads held is gone");
    }

    #[test]
    fn recycle_keeps_capacity_for_pool_reuse() {
        // freeze → slice → drop the slices → try_into_mut hands back the
        // whole buffer at its full length, as in the real crate.
        let mut b = BytesMut::new();
        b.resize(1024, 0);
        let full = b.freeze();
        let frame = full.slice(0..10);
        assert!(frame.clone().try_into_mut().is_err(), "two handles alive");
        drop(frame);
        let back = full.try_into_mut().expect("slices dropped");
        assert_eq!(back.len(), 1024, "full-length buffer comes back");
    }
}
