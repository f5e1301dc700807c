//! Minimal API-compatible stand-in for the [`bytes`] crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small slice of the `bytes` API it actually uses: cheaply
//! clonable [`Bytes`] views, an append-only [`BytesMut`] builder, and the
//! big-endian [`Buf`]/[`BufMut`] cursor traits. Semantics match the real
//! crate for every method provided here.
//!
//! As in the real crate, an empty [`Bytes`] owns nothing: `new`, `default`,
//! empty conversions, empty slices and the freeze of a builder that never
//! allocated hold no buffer, so building, cloning and dropping one touches
//! neither the heap nor a reference count. Every beacon, ACK, NAK and
//! Commit carries such a payload.
//!
//! [`bytes`]: https://docs.rs/bytes

use std::sync::Arc;

/// A cheaply clonable, immutable view into a shared byte buffer.
///
/// Three words: the scheduler carries one in every packet event.
#[derive(Clone, Default)]
pub struct Bytes {
    /// The shared buffer; `None` only for an empty view that owns nothing
    /// (then `start == end == 0`).
    data: Option<Arc<Vec<u8>>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// A buffer viewing a static slice (copied here; the real crate
    /// borrows, but callers only rely on value semantics).
    pub fn from_static(s: &'static [u8]) -> Self {
        Bytes::from(s.to_vec())
    }

    /// Copy `s` into a fresh buffer.
    pub fn copy_from_slice(s: &[u8]) -> Self {
        Bytes::from(s.to_vec())
    }

    /// Length of the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.data {
            Some(data) => &data[self.start..self.end],
            None => &[],
        }
    }

    /// A sub-view of `range` (relative to this view), sharing storage.
    /// An empty sub-view shares nothing, so it never pins the buffer.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len());
        if range.is_empty() {
            return Bytes::new();
        }
        Bytes {
            data: self.data.clone(),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Split off and return the first `at` bytes, advancing `self`.
    /// Splitting everything off moves the storage out and leaves `self`
    /// owning nothing.
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
        let Bytes { data, start, end } = self;
        let Some(data) = data else { return Ok(BytesMut::new()) };
        match Arc::try_unwrap(data) {
            Ok(mut v) => {
                v.truncate(end);
                if start > 0 {
                    v.drain(..start);
                }
                Ok(BytesMut { vec: v, read: 0 })
            }
            Err(data) => Err(Bytes { data: Some(data), start, end }),
        }
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
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
    fn from(v: Vec<u8>) -> Self {
        if v.capacity() == 0 {
            return Bytes::new();
        }
        let end = v.len();
        Bytes { data: Some(Arc::new(v)), start: 0, end }
    }
}
impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}
impl From<&str> for Bytes {
    fn from(s: &str) -> Self {
        Bytes::from(s.as_bytes().to_vec())
    }
}
impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::from(s.to_vec())
    }
}
impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(s: &[u8; N]) -> Self {
        Bytes::from(s.to_vec())
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
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    vec: Vec<u8>,
    /// Read cursor for the `Buf` impl (the real crate consumes from the
    /// front; only tests rely on this).
    read: usize,
}

impl BytesMut {
    /// An empty builder.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty builder with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { vec: Vec::with_capacity(cap), read: 0 }
    }

    /// Unread length.
    pub fn len(&self) -> usize {
        self.vec.len() - self.read
    }

    /// Whether nothing unread remains.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.vec.extend_from_slice(s);
    }

    /// Reserve additional capacity.
    pub fn reserve(&mut self, additional: usize) {
        self.vec.reserve(additional);
    }

    /// Usable capacity from the current read position.
    pub fn capacity(&self) -> usize {
        self.vec.capacity() - self.read
    }

    /// Drop all contents (read and unread) without releasing storage.
    pub fn clear(&mut self) {
        self.vec.clear();
        self.read = 0;
    }

    /// Truncate the unread region to at most `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.vec.truncate(self.read + len);
        }
    }

    /// Resize the unread region to exactly `new_len` bytes, filling any
    /// growth with `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.vec.resize(self.read + new_len, value);
    }

    /// Freeze into an immutable, shareable buffer.
    pub fn freeze(mut self) -> Bytes {
        if self.read > 0 {
            self.vec.drain(..self.read);
        }
        Bytes::from(self.vec)
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec[self.read..]
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        let read = self.read;
        &mut self.vec[read..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.vec[self.read..]
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({:?})", &self.vec[self.read..])
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
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
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
        &self.vec[self.read..]
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
    fn put_slice(&mut self, s: &[u8]) {
        self.vec.extend_from_slice(s);
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
