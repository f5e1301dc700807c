//! Property tests for the management-plane codec.
//!
//! `MgmtFrame` payloads arrive over the same untrusted UDP sockets as
//! data datagrams: every frame the encoder can produce must round-trip
//! bit-exactly, and truncated or bit-flipped inputs must decode to an
//! error (or a different valid frame) — never panic.

use bytes::Bytes;
use onepipe_controller::protocol::{CtrlAction, CtrlEvent};
use onepipe_controller::raft::{LogEntry, RaftMsg};
use onepipe_controller::wire::MgmtFrame;
use onepipe_types::ids::{NodeId, ProcessId};
use onepipe_types::time::Timestamp;
use onepipe_types::wire::{Datagram, Flags, Opcode, PacketHeader};
use proptest::prelude::*;

/// Deterministically expand one u64 seed into a frame covering every
/// variant; the remaining draws vary the fields.
fn mk_frame(variant: u8, a: u64, b: u64, c: u32, seed: u64) -> MgmtFrame {
    let ts = Timestamp::from_raw(a);
    match variant % 7 {
        0 => MgmtFrame::Req {
            seq: b,
            ev: CtrlEvent::Detect {
                reporter: NodeId(c),
                dead: NodeId(c.wrapping_add(1)),
                last_commit: ts,
            },
        },
        1 => MgmtFrame::Req {
            seq: a,
            ev: CtrlEvent::CallbackComplete { announce_id: b, from: ProcessId(c) },
        },
        2 => MgmtFrame::Action {
            epoch: a,
            action: CtrlAction::Announce {
                id: b,
                to: ProcessId(c),
                failures: vec![
                    (ProcessId(c.wrapping_add(7)), ts),
                    (ProcessId(c.wrapping_add(9)), Timestamp::from_raw(b)),
                ],
            },
        },
        3 => MgmtFrame::Action {
            epoch: a,
            action: CtrlAction::Resume { at: NodeId(c), input: NodeId(c.wrapping_add(2)) },
        },
        4 => MgmtFrame::Forward(Datagram {
            src: ProcessId(c),
            dst: ProcessId(c.wrapping_add(1)),
            header: PacketHeader {
                msg_ts: ts,
                barrier: Timestamp::from_raw(b),
                commit_barrier: Timestamp::from_raw(a ^ b),
                psn: c,
                opcode: Opcode::from_u8((seed % 10) as u8).unwrap(),
                flags: Flags::from_bits((seed >> 4) as u8 & 0x0F),
            },
            payload: Bytes::from(seed.to_le_bytes().to_vec()),
        }),
        5 => MgmtFrame::Raft {
            from: c,
            msg: RaftMsg::Append {
                term: a,
                prev_log_index: b,
                prev_log_term: a ^ b,
                entries: vec![LogEntry { term: a, data: seed.to_le_bytes().to_vec() }],
                leader_commit: b.wrapping_add(1),
            },
        },
        _ => MgmtFrame::Ack { seq: a },
    }
}

proptest! {
    /// encode -> decode is the identity across every frame variant.
    #[test]
    fn mgmt_frame_roundtrip(
        variant in 0u8..7,
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let f = mk_frame(variant, a, b, c, seed);
        let decoded = MgmtFrame::decode(f.encode()).expect("decodes");
        prop_assert_eq!(decoded, f);
    }

    /// Truncating an encoded frame anywhere yields an error or a valid
    /// shorter parse — never a panic.
    #[test]
    fn truncated_mgmt_frame_never_panics(
        variant in 0u8..7,
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u32>(),
        seed in any::<u64>(),
        cut_pm in 0usize..1000,
    ) {
        let raw = mk_frame(variant, a, b, c, seed).encode();
        let cut = raw.len() * cut_pm / 1000;
        let _ = MgmtFrame::decode(raw.slice(0..cut));
    }

    /// A single flipped bit anywhere in the encoding never panics the
    /// decoder.
    #[test]
    fn bitflipped_mgmt_frame_never_panics(
        variant in 0u8..7,
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u32>(),
        seed in any::<u64>(),
        pos_pm in 0usize..1000,
        xor in 1u8..=255u8,
    ) {
        let mut raw = mk_frame(variant, a, b, c, seed).encode().to_vec();
        let at = pos_pm * raw.len() / 1000;
        let at = at.min(raw.len() - 1);
        raw[at] ^= xor;
        let _ = MgmtFrame::decode(Bytes::from(raw));
    }

    /// Random bytes never panic the decoder.
    #[test]
    fn random_bytes_never_panic_mgmt(raw in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = MgmtFrame::decode(Bytes::from(raw));
    }
}
