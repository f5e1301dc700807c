//! The 1Pipe wire format.
//!
//! Paper §6.1: "A UD packet in 1Pipe adds 24 bytes of headers: 3 timestamps
//! including message, best-effort barrier, and commit barrier; PSN; an
//! opcode and a flag that marks end of message. A timestamp is a 48-bit
//! integer."
//!
//! [`PacketHeader`] is exactly that 24-byte header. [`Datagram`] wraps it
//! with endpoint addressing (source/destination process) for transports
//! that need self-contained packets (the UDP transport, pcap-style traces).

use crate::ids::{ProcessId, HOP_LOCAL};
use crate::time::Timestamp;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Encoded size of [`PacketHeader`] in bytes (3×6 TS + 4 PSN + 1 op + 1 flags).
pub const HEADER_LEN: usize = 24;

/// Encoded size of the [`Datagram`] addressing prologue (src + dst + len).
pub const ADDR_LEN: usize = 4 + 4 + 4;

/// Packet type discriminator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum Opcode {
    /// Best-effort data packet; barriers are aggregated in-network.
    Data = 0,
    /// Reliable-service data packet (Prepare phase of 2PC). Switches do NOT
    /// aggregate the best-effort barrier for these (§5.1).
    DataReliable = 1,
    /// End-to-end acknowledgement of a reliable data packet.
    Ack = 2,
    /// Negative acknowledgement: the packet arrived below the receiver's
    /// delivered barrier and was dropped (§4.1).
    Nak = 3,
    /// Hop-by-hop beacon carrying barrier timestamps on idle links (§4.2).
    Beacon = 4,
    /// Commit message from a sender to its first-hop switch, carrying the
    /// commit barrier (§5.1, Figure 6).
    Commit = 5,
    /// Recall of a scattering whose delivery must be aborted (§5.2).
    Recall = 6,
    /// Acknowledgement of a [`Opcode::Recall`].
    RecallAck = 7,
    /// Controller-plane message; the payload carries the protocol body.
    Control = 8,
    /// Management-plane frame (controller ↔ host/switch): dead-link
    /// reports, failure announcements, resume orders, forwarded data.
    /// Never enters barrier aggregation or the total order.
    Mgmt = 9,
}

impl Opcode {
    /// Decode from the wire byte.
    pub fn from_u8(v: u8) -> Option<Opcode> {
        Some(match v {
            0 => Opcode::Data,
            1 => Opcode::DataReliable,
            2 => Opcode::Ack,
            3 => Opcode::Nak,
            4 => Opcode::Beacon,
            5 => Opcode::Commit,
            6 => Opcode::Recall,
            7 => Opcode::RecallAck,
            8 => Opcode::Control,
            9 => Opcode::Mgmt,
            _ => return None,
        })
    }

    /// True for packets that carry application payload and therefore occupy
    /// a position in the total order.
    pub fn is_data(self) -> bool {
        matches!(self, Opcode::Data | Opcode::DataReliable)
    }
}

/// Tiny local bitflags implementation so we do not pull in the `bitflags`
/// crate for one type.
macro_rules! bitflags_lite {
    (
        $(#[$meta:meta])*
        pub struct $name:ident: $ty:ty {
            $( $(#[$fmeta:meta])* const $flag:ident = $value:expr; )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
        pub struct $name($ty);

        impl $name {
            $( $(#[$fmeta])* pub const $flag: $name = $name($value); )*

            /// No flags set.
            pub const fn empty() -> Self { $name(0) }
            /// Raw bit pattern.
            pub const fn bits(self) -> $ty { self.0 }
            /// Reconstruct from raw bits (unknown bits preserved).
            pub const fn from_bits(bits: $ty) -> Self { $name(bits) }
            /// Whether every bit of `other` is set in `self`.
            pub const fn contains(self, other: $name) -> bool {
                (self.0 & other.0) == other.0
            }
            /// Set the bits of `other`.
            pub fn insert(&mut self, other: $name) { self.0 |= other.0; }
            /// Clear the bits of `other`.
            pub fn remove(&mut self, other: $name) { self.0 &= !other.0; }
            /// Union of the two flag sets.
            pub const fn union(self, other: $name) -> $name { $name(self.0 | other.0) }
        }

        impl std::ops::BitOr for $name {
            type Output = $name;
            fn bitor(self, rhs: $name) -> $name { self.union(rhs) }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "Flags({:#010b})", self.0)
            }
        }
    };
}

bitflags_lite! {
    /// Per-packet flag bits.
    pub struct Flags: u8 {
        /// Last fragment of a message (paper's "end of message" flag).
        const END_OF_MESSAGE = 0b0000_0001;
        /// ECN congestion-experienced mark (set by switches, echoed in ACKs).
        const ECN = 0b0000_0010;
        /// This packet is a retransmission.
        const RETRANSMIT = 0b0000_0100;
        /// The message belongs to a multi-destination scattering.
        const SCATTERING = 0b0000_1000;
    }
}

/// The 24-byte 1Pipe packet header (paper §6.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PacketHeader {
    /// Message timestamp, set by the sender, never modified in flight.
    pub msg_ts: Timestamp,
    /// Best-effort barrier timestamp, rewritten hop-by-hop per eq. (4.1).
    pub barrier: Timestamp,
    /// Commit barrier timestamp for the reliable service, also rewritten
    /// hop-by-hop.
    pub commit_barrier: Timestamp,
    /// Packet sequence number, used for loss detection and defragmentation.
    pub psn: u32,
    /// Packet type.
    pub opcode: Opcode,
    /// Flag bits.
    pub flags: Flags,
}

impl PacketHeader {
    /// A header with all timestamps equal to `ts` — how senders initialize
    /// data packets (§4.1: "the sender initializes both fields ... with the
    /// non-decreasing message timestamp").
    pub fn data(ts: Timestamp, psn: u32, flags: Flags) -> Self {
        PacketHeader {
            msg_ts: ts,
            barrier: ts,
            commit_barrier: Timestamp::ZERO,
            psn,
            opcode: Opcode::Data,
            flags,
        }
    }

    /// A header-only control packet (ACK, NAK, Recall, RecallAck, Commit,
    /// raw RPC): both barriers zero, so no switch reads one from it.
    pub fn control(opcode: Opcode, msg_ts: Timestamp, psn: u32, flags: Flags) -> Self {
        PacketHeader {
            msg_ts,
            barrier: Timestamp::ZERO,
            commit_barrier: Timestamp::ZERO,
            psn,
            opcode,
            flags,
        }
    }

    /// Serialize into `buf` (appends exactly [`HEADER_LEN`] bytes).
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_uint(self.msg_ts.raw(), 6);
        buf.put_uint(self.barrier.raw(), 6);
        buf.put_uint(self.commit_barrier.raw(), 6);
        buf.put_u32(self.psn);
        buf.put_u8(self.opcode as u8);
        buf.put_u8(self.flags.bits());
    }

    /// Deserialize from `buf`, consuming exactly [`HEADER_LEN`] bytes.
    pub fn decode(buf: &mut impl Buf) -> crate::Result<Self> {
        if buf.remaining() < HEADER_LEN {
            return Err(crate::Error::Truncated { needed: HEADER_LEN, got: buf.remaining() });
        }
        let msg_ts = Timestamp::from_raw(buf.get_uint(6));
        let barrier = Timestamp::from_raw(buf.get_uint(6));
        let commit_barrier = Timestamp::from_raw(buf.get_uint(6));
        let psn = buf.get_u32();
        let op = buf.get_u8();
        let opcode = Opcode::from_u8(op).ok_or(crate::Error::BadOpcode(op))?;
        let flags = Flags::from_bits(buf.get_u8());
        Ok(PacketHeader { msg_ts, barrier, commit_barrier, psn, opcode, flags })
    }
}

/// A self-contained packet: addressing + 1Pipe header + payload.
///
/// This is what travels through the simulator and over the UDP transport.
/// In the real system the addressing would live in the RDMA UD / IP headers.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Datagram {
    /// Sending process.
    pub src: ProcessId,
    /// Destination process.
    pub dst: ProcessId,
    /// The 24-byte 1Pipe header.
    pub header: PacketHeader,
    /// Application payload (empty for beacons/ACKs/control skeletons).
    pub payload: Bytes,
}

impl Datagram {
    /// The hop-by-hop beacon carrying barriers `be` and `commit` (§4.2)
    /// and nothing else: no process address, timestamp, PSN, flag or
    /// payload.
    pub fn beacon(be: Timestamp, commit: Timestamp) -> Self {
        Datagram {
            src: HOP_LOCAL,
            dst: HOP_LOCAL,
            header: PacketHeader {
                msg_ts: Timestamp::ZERO,
                barrier: be,
                commit_barrier: commit,
                psn: 0,
                opcode: Opcode::Beacon,
                flags: Flags::empty(),
            },
            payload: Bytes::new(),
        }
    }

    /// Total encoded length in bytes.
    pub fn encoded_len(&self) -> usize {
        ADDR_LEN + HEADER_LEN + self.payload.len()
    }

    /// Serialize into `buf` without allocating (appends exactly
    /// [`encoded_len`](Self::encoded_len) bytes). Transports reuse one
    /// scratch buffer across sends instead of allocating per datagram.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.reserve(self.encoded_len());
        buf.put_u32(self.src.0);
        buf.put_u32(self.dst.0);
        buf.put_u32(self.payload.len() as u32);
        self.header.encode(buf);
        buf.extend_from_slice(&self.payload);
    }

    /// Serialize to a fresh buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Deserialize from a buffer produced by [`encode`](Self::encode).
    ///
    /// Zero-copy: the payload is a sub-view sharing `buf`'s storage, so
    /// it pins the frame it was decoded from. Empty payloads return a
    /// detached [`Bytes::new`] so beacons and ACKs pin nothing.
    pub fn decode(mut buf: Bytes) -> crate::Result<Self> {
        if buf.remaining() < ADDR_LEN + HEADER_LEN {
            return Err(crate::Error::Truncated {
                needed: ADDR_LEN + HEADER_LEN,
                got: buf.remaining(),
            });
        }
        let src = ProcessId(buf.get_u32());
        let dst = ProcessId(buf.get_u32());
        let len = buf.get_u32() as usize;
        let header = PacketHeader::decode(&mut buf)?;
        if buf.remaining() < len {
            return Err(crate::Error::Truncated { needed: len, got: buf.remaining() });
        }
        let payload = if len == 0 { Bytes::new() } else { buf.split_to(len) };
        Ok(Datagram { src, dst, header, payload })
    }
}

/// First byte of a batch frame. Distinguishable from a legacy bare
/// [`Datagram`] because a bare encoding starts with the high byte of the
/// source [`ProcessId`], and process ids stay far below `0xB100_0000`.
pub const BATCH_MAGIC: u8 = 0xB1;

/// Batch frame format version carried in the second byte.
pub const BATCH_VERSION: u8 = 1;

/// Fixed bytes before the first datagram of a batch frame
/// (magic + version + u16 count).
pub const BATCH_HEADER_LEN: usize = 4;

/// Per-datagram framing overhead inside a batch (u32 length prefix).
pub const BATCH_ENTRY_OVERHEAD: usize = 4;

/// Incremental encoder for a multi-datagram batch frame:
///
/// ```text
/// [magic 0xB1][version u8][count u16] then count ×: [len u32][Datagram]
/// ```
///
/// Push datagrams, then call [`finish`](Self::finish) to patch the count.
/// One UDP packet carries the whole frame, so beacons/ACKs/mgmt piggyback
/// on data and N datagrams cost one syscall.
pub struct BatchEncoder<'a> {
    buf: &'a mut BytesMut,
    base: usize,
    count: u16,
}

impl<'a> BatchEncoder<'a> {
    /// Start a frame at the current end of `buf`.
    pub fn new(buf: &'a mut BytesMut) -> Self {
        let base = buf.len();
        buf.put_u8(BATCH_MAGIC);
        buf.put_u8(BATCH_VERSION);
        buf.put_u16(0); // count, patched by finish()
        BatchEncoder { buf, base, count: 0 }
    }

    /// Append one datagram with its length prefix.
    ///
    /// # Panics
    /// If the frame already holds `u16::MAX` datagrams; callers split
    /// frames long before that (see [`Self::is_full`]).
    pub fn push(&mut self, d: &Datagram) {
        assert!(self.count < u16::MAX, "batch frame datagram count overflow");
        self.buf.put_u32(d.encoded_len() as u32);
        d.encode_into(self.buf);
        self.count += 1;
    }

    /// Number of datagrams pushed so far.
    pub fn count(&self) -> u16 {
        self.count
    }

    /// Encoded frame size so far, in bytes.
    pub fn frame_len(&self) -> usize {
        self.buf.len() - self.base
    }

    /// True once no further datagram may be pushed.
    pub fn is_full(&self) -> bool {
        self.count == u16::MAX
    }

    /// Patch the datagram count into the header and return it.
    pub fn finish(self) -> u16 {
        let c = self.count.to_be_bytes();
        self.buf[self.base + 2] = c[0];
        self.buf[self.base + 3] = c[1];
        self.count
    }
}

/// Encode `datagrams` as a single batch frame appended to `buf`.
pub fn encode_batch_into(datagrams: &[Datagram], buf: &mut BytesMut) {
    let mut enc = BatchEncoder::new(buf);
    for d in datagrams {
        enc.push(d);
    }
    enc.finish();
}

/// Decode one received UDP frame, which is either a batch frame or a
/// legacy bare [`Datagram`]. Yields one `Result` per framed datagram.
///
/// Framing is trusted over content: a corrupt *inner* datagram (bad
/// opcode, truncated header) yields an `Err` for that entry but iteration
/// continues at the next length prefix, so one bad packet never mis-frames
/// the rest of the batch. A corrupt length prefix (running past the frame)
/// poisons the remainder of that frame only.
pub fn decode_frame(frame: Bytes) -> FrameIter {
    if frame.first() == Some(&BATCH_MAGIC) {
        if frame.len() < BATCH_HEADER_LEN {
            return FrameIter::Poisoned(Some(crate::Error::Truncated {
                needed: BATCH_HEADER_LEN,
                got: frame.len(),
            }));
        }
        let mut buf = frame;
        buf.advance(1);
        let version = buf.get_u8();
        if version != BATCH_VERSION {
            return FrameIter::Poisoned(Some(crate::Error::BadFrameVersion(version)));
        }
        let remaining = buf.get_u16();
        FrameIter::Batch { buf, remaining, dead: false }
    } else {
        FrameIter::Legacy(Some(frame))
    }
}

/// Iterator over the datagrams of one frame; see [`decode_frame`].
pub enum FrameIter {
    /// A pre-batching frame holding exactly one bare datagram.
    Legacy(Option<Bytes>),
    /// A batch frame; `remaining` entries left, `dead` once framing broke.
    Batch {
        /// Unconsumed frame bytes.
        buf: Bytes,
        /// Entries the header still promises.
        remaining: u16,
        /// Set when a length prefix overran the frame.
        dead: bool,
    },
    /// A frame whose batch header itself was malformed: yields the error once.
    Poisoned(Option<crate::Error>),
}

impl Iterator for FrameIter {
    type Item = crate::Result<Datagram>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            FrameIter::Legacy(slot) => slot.take().map(Datagram::decode),
            FrameIter::Poisoned(slot) => slot.take().map(Err),
            FrameIter::Batch { buf, remaining, dead } => {
                if *dead || *remaining == 0 {
                    return None;
                }
                *remaining -= 1;
                if buf.remaining() < BATCH_ENTRY_OVERHEAD {
                    *dead = true;
                    return Some(Err(crate::Error::Truncated {
                        needed: BATCH_ENTRY_OVERHEAD,
                        got: buf.remaining(),
                    }));
                }
                let len = buf.get_u32() as usize;
                if buf.remaining() < len {
                    *dead = true;
                    return Some(Err(crate::Error::Truncated {
                        needed: len,
                        got: buf.remaining(),
                    }));
                }
                // Framing survives a corrupt entry: skip by length, decode
                // the slice independently.
                Some(Datagram::decode(buf.split_to(len)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> PacketHeader {
        PacketHeader {
            msg_ts: Timestamp::from_nanos(123_456_789),
            barrier: Timestamp::from_nanos(123_000_000),
            commit_barrier: Timestamp::from_nanos(122_000_000),
            psn: 0xDEAD_BEEF,
            opcode: Opcode::DataReliable,
            flags: Flags::END_OF_MESSAGE | Flags::SCATTERING,
        }
    }

    #[test]
    fn header_roundtrip() {
        let h = sample_header();
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        let decoded = PacketHeader::decode(&mut buf.freeze()).unwrap();
        assert_eq!(decoded, h);
    }

    #[test]
    fn header_is_exactly_24_bytes() {
        // The paper's claim: 24 bytes of overhead per UD packet.
        let mut buf = BytesMut::new();
        sample_header().encode(&mut buf);
        assert_eq!(buf.len(), 24);
    }

    #[test]
    fn datagram_roundtrip() {
        let d = Datagram {
            src: ProcessId(7),
            dst: ProcessId(9),
            header: sample_header(),
            payload: Bytes::from_static(b"hello 1pipe"),
        };
        let encoded = d.encode();
        assert_eq!(encoded.len(), d.encoded_len());
        let decoded = Datagram::decode(encoded).unwrap();
        assert_eq!(decoded, d);
    }

    #[test]
    fn truncated_header_rejected() {
        let mut buf = BytesMut::new();
        sample_header().encode(&mut buf);
        let mut short = buf.freeze().slice(0..10);
        assert!(matches!(PacketHeader::decode(&mut short), Err(crate::Error::Truncated { .. })));
    }

    #[test]
    fn bad_opcode_rejected() {
        let mut buf = BytesMut::new();
        sample_header().encode(&mut buf);
        let mut bytes = buf.to_vec();
        bytes[22] = 0xFF; // opcode byte
        assert!(matches!(
            PacketHeader::decode(&mut Bytes::from(bytes)),
            Err(crate::Error::BadOpcode(0xFF))
        ));
    }

    #[test]
    fn flags_ops() {
        let mut f = Flags::empty();
        assert!(!f.contains(Flags::ECN));
        f.insert(Flags::ECN);
        f.insert(Flags::RETRANSMIT);
        assert!(f.contains(Flags::ECN | Flags::RETRANSMIT));
        f.remove(Flags::ECN);
        assert!(!f.contains(Flags::ECN));
        assert!(f.contains(Flags::RETRANSMIT));
    }

    #[test]
    fn opcode_roundtrip_all() {
        for v in 0u8..=9 {
            let op = Opcode::from_u8(v).unwrap();
            assert_eq!(op as u8, v);
        }
        assert!(Opcode::from_u8(10).is_none());
    }

    #[test]
    fn is_data_classification() {
        assert!(Opcode::Data.is_data());
        assert!(Opcode::DataReliable.is_data());
        assert!(!Opcode::Beacon.is_data());
        assert!(!Opcode::Ack.is_data());
        assert!(!Opcode::Commit.is_data());
    }

    fn sample_datagram(src: u32, body: &[u8]) -> Datagram {
        Datagram {
            src: ProcessId(src),
            dst: ProcessId(src + 1),
            header: sample_header(),
            payload: Bytes::copy_from_slice(body),
        }
    }

    #[test]
    fn encode_into_matches_encode() {
        let d = sample_datagram(3, b"payload bytes");
        let mut buf = BytesMut::new();
        buf.extend_from_slice(b"prefix"); // appends after existing content
        d.encode_into(&mut buf);
        assert_eq!(&buf[6..], &d.encode()[..]);
    }

    #[test]
    fn decode_payload_is_zero_copy_slice() {
        let d = sample_datagram(1, b"shared storage");
        let encoded = d.encode();
        let decoded = Datagram::decode(encoded.clone()).unwrap();
        // The frame and the payload share one allocation: while the payload
        // handle lives, the frame cannot be reclaimed...
        assert!(encoded.clone().try_into_mut().is_err());
        // ...and once the decoded datagram drops, it can.
        drop(decoded);
        assert!(encoded.try_into_mut().is_ok());
    }

    #[test]
    fn empty_payload_does_not_pin_frame() {
        let d = sample_datagram(1, b"");
        let encoded = d.encode();
        let decoded = Datagram::decode(encoded.clone()).unwrap();
        assert!(decoded.payload.is_empty());
        // Beacon-like packets must not hold the receive buffer alive.
        assert!(encoded.try_into_mut().is_ok());
        drop(decoded);
    }

    #[test]
    fn batch_roundtrip() {
        let ds =
            vec![sample_datagram(1, b"first"), sample_datagram(2, b""), sample_datagram(3, b"x")];
        let mut buf = BytesMut::new();
        encode_batch_into(&ds, &mut buf);
        assert_eq!(
            buf.len(),
            BATCH_HEADER_LEN
                + ds.iter().map(|d| BATCH_ENTRY_OVERHEAD + d.encoded_len()).sum::<usize>()
        );
        let out: Vec<Datagram> =
            decode_frame(buf.freeze()).collect::<crate::Result<Vec<_>>>().unwrap();
        assert_eq!(out, ds);
    }

    #[test]
    fn empty_batch_roundtrip() {
        let mut buf = BytesMut::new();
        encode_batch_into(&[], &mut buf);
        assert_eq!(decode_frame(buf.freeze()).count(), 0);
    }

    #[test]
    fn legacy_frame_still_decodes() {
        let d = sample_datagram(4, b"old format");
        let out: Vec<Datagram> =
            decode_frame(d.encode()).collect::<crate::Result<Vec<_>>>().unwrap();
        assert_eq!(out, vec![d]);
    }

    #[test]
    fn corrupt_inner_datagram_does_not_misframe_batch() {
        let ds = vec![
            sample_datagram(1, b"ok1"),
            sample_datagram(2, b"bad"),
            sample_datagram(3, b"ok2"),
        ];
        let mut buf = BytesMut::new();
        encode_batch_into(&ds, &mut buf);
        // Corrupt the middle datagram's opcode byte (inside its slice).
        let mid_off = BATCH_HEADER_LEN
            + BATCH_ENTRY_OVERHEAD
            + ds[0].encoded_len()
            + BATCH_ENTRY_OVERHEAD
            + ADDR_LEN
            + 22; // opcode byte within the header
        buf[mid_off] = 0xFF;
        let items: Vec<_> = decode_frame(buf.freeze()).collect();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].as_ref().unwrap(), &ds[0]);
        assert!(matches!(items[1], Err(crate::Error::BadOpcode(0xFF))));
        // The third datagram survives the corrupt second one.
        assert_eq!(items[2].as_ref().unwrap(), &ds[2]);
    }

    #[test]
    fn truncated_batch_poisons_remainder_without_panicking() {
        let ds = vec![sample_datagram(1, b"aaaa"), sample_datagram(2, b"bbbb")];
        let mut buf = BytesMut::new();
        encode_batch_into(&ds, &mut buf);
        let full = buf.freeze();
        for cut in 0..full.len() {
            let items: Vec<_> = decode_frame(full.slice(0..cut)).collect();
            // Never more entries than promised; errors allowed, panics not.
            assert!(items.len() <= 2);
        }
    }

    #[test]
    fn bad_batch_version_rejected() {
        let mut buf = BytesMut::new();
        encode_batch_into(&[sample_datagram(1, b"v")], &mut buf);
        buf[1] = 9; // version byte
        let items: Vec<_> = decode_frame(buf.freeze()).collect();
        assert_eq!(items.len(), 1);
        assert!(matches!(items[0], Err(crate::Error::BadFrameVersion(9))));
    }
}
