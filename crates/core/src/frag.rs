//! Message framing and fragmentation.
//!
//! Each 1Pipe message is carried in one or more UD-style fragments
//! (paper §6.1: "Each 1Pipe message is fragmented into one or more UD
//! packets", with a PSN "used for loss detection and defragmentation" and
//! an end-of-message flag).
//!
//! Every fragment's payload begins with a 10-byte prefix —
//! `[scattering seq: u64][message index within scattering: u16]` — so a
//! receiver can attribute any fragment to its position in the total order
//! without waiting for the first fragment, and so Recall messages can name
//! the scattering they abort. Fragment boundaries within a message are
//! recovered from consecutive PSNs between a START and an END flag.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use onepipe_types::wire::Flags;

/// Per-fragment payload prefix length (`seq: u64` + `midx: u16`).
pub const FRAG_PREFIX: usize = 10;

/// Extra flag (beyond the paper's EOM) marking the first fragment of a
/// message, so fragment runs can be delimited from either end.
pub const START_OF_MESSAGE: Flags = Flags::from_bits(0b0010_0000);

/// Flag distinguishing reliable-channel ACK/NAK packets from best-effort
/// ones (the two services keep separate PSN spaces).
pub const REL_CHANNEL: Flags = Flags::from_bits(0b0100_0000);

/// One fragment produced by [`fragment_message`]: flag bits plus the
/// on-wire payload (prefix + slice of application data).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fragment {
    /// START_OF_MESSAGE / END_OF_MESSAGE bits for this fragment.
    pub flags: Flags,
    /// Prefixed payload bytes.
    pub payload: Bytes,
}

/// Split an application payload into fragments of at most `mtu_payload`
/// application bytes each, lazily — the send path consumes them one by
/// one. Always yields at least one fragment (empty messages are legal and
/// useful as pure synchronization points).
pub fn fragments(
    seq: u64,
    midx: u16,
    data: &Bytes,
    mtu_payload: usize,
) -> impl Iterator<Item = Fragment> + '_ {
    assert!(mtu_payload > 0, "mtu must be positive");
    let n_frags = fragment_count(data.len(), mtu_payload) as usize;
    (0..n_frags).map(move |i| {
        let lo = i * mtu_payload;
        let hi = ((i + 1) * mtu_payload).min(data.len());
        let mut buf = BytesMut::with_capacity(FRAG_PREFIX + (hi - lo));
        buf.put_u64(seq);
        buf.put_u16(midx);
        buf.extend_from_slice(&data[lo..hi]);
        let mut flags = Flags::empty();
        if i == 0 {
            flags.insert(START_OF_MESSAGE);
        }
        if i == n_frags - 1 {
            flags.insert(Flags::END_OF_MESSAGE);
        }
        Fragment { flags, payload: buf.freeze() }
    })
}

/// [`fragments`], collected.
pub fn fragment_message(seq: u64, midx: u16, data: &Bytes, mtu_payload: usize) -> Vec<Fragment> {
    fragments(seq, midx, data, mtu_payload).collect()
}

/// Parse a fragment payload back into `(seq, midx, application bytes)`.
pub fn parse_fragment(mut payload: Bytes) -> onepipe_types::Result<(u64, u16, Bytes)> {
    if payload.len() < FRAG_PREFIX {
        return Err(onepipe_types::Error::Truncated { needed: FRAG_PREFIX, got: payload.len() });
    }
    let seq = payload.get_u64();
    let midx = payload.get_u16();
    Ok((seq, midx, payload))
}

/// Number of fragments a payload of `len` bytes needs.
pub fn fragment_count(len: usize, mtu_payload: usize) -> u32 {
    len.div_ceil(mtu_payload).max(1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reassemble(frags: &[Fragment]) -> (u64, u16, Vec<u8>) {
        let mut data = Vec::new();
        let mut seq = 0;
        let mut midx = 0;
        for f in frags {
            let (s, m, rest) = parse_fragment(f.payload.clone()).unwrap();
            seq = s;
            midx = m;
            data.extend_from_slice(&rest);
        }
        (seq, midx, data)
    }

    #[test]
    fn single_fragment_roundtrip() {
        let data = Bytes::from_static(b"hello");
        let frags = fragment_message(42, 3, &data, 1024);
        assert_eq!(frags.len(), 1);
        assert!(frags[0].flags.contains(START_OF_MESSAGE));
        assert!(frags[0].flags.contains(Flags::END_OF_MESSAGE));
        let (seq, midx, got) = reassemble(&frags);
        assert_eq!((seq, midx), (42, 3));
        assert_eq!(got, b"hello");
    }

    #[test]
    fn multi_fragment_roundtrip() {
        let data = Bytes::from(vec![7u8; 2500]);
        let frags = fragment_message(1, 0, &data, 1000);
        assert_eq!(frags.len(), 3);
        assert!(frags[0].flags.contains(START_OF_MESSAGE));
        assert!(!frags[0].flags.contains(Flags::END_OF_MESSAGE));
        assert!(!frags[1].flags.contains(START_OF_MESSAGE));
        assert!(frags[2].flags.contains(Flags::END_OF_MESSAGE));
        let (_, _, got) = reassemble(&frags);
        assert_eq!(got.len(), 2500);
    }

    #[test]
    fn empty_message_yields_one_fragment() {
        let frags = fragment_message(9, 0, &Bytes::new(), 1000);
        assert_eq!(frags.len(), 1);
        let (seq, midx, rest) = parse_fragment(frags[0].payload.clone()).unwrap();
        assert_eq!((seq, midx), (9, 0));
        assert!(rest.is_empty());
    }

    #[test]
    fn exact_mtu_boundary() {
        let data = Bytes::from(vec![1u8; 2000]);
        let frags = fragment_message(0, 0, &data, 1000);
        assert_eq!(frags.len(), 2);
        assert_eq!(fragment_count(2000, 1000), 2);
        assert_eq!(fragment_count(2001, 1000), 3);
        assert_eq!(fragment_count(0, 1000), 1);
    }

    #[test]
    fn short_fragment_rejected() {
        assert!(parse_fragment(Bytes::from_static(b"short")).is_err());
    }

    #[test]
    fn extra_flags_do_not_collide_with_wire_flags() {
        // START_OF_MESSAGE and REL_CHANNEL must not overlap the wire-level
        // flags defined in onepipe-types.
        for f in [Flags::END_OF_MESSAGE, Flags::ECN, Flags::RETRANSMIT, Flags::SCATTERING] {
            assert_eq!(START_OF_MESSAGE.bits() & f.bits(), 0);
            assert_eq!(REL_CHANNEL.bits() & f.bits(), 0);
        }
        assert_eq!(START_OF_MESSAGE.bits() & REL_CHANNEL.bits(), 0);
    }
}
