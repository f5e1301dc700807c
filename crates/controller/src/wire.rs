//! Management-plane framing: what controller traffic looks like on a real
//! transport.
//!
//! The simulator harness hands [`CtrlEvent`]s and [`CtrlAction`]s around
//! as in-memory values; a real deployment must put them on the wire. A
//! [`MgmtFrame`] is the payload of an `Opcode::Mgmt` datagram travelling
//! over the management network between hosts, switches, and the
//! controller replicas:
//!
//! * **Req / Ack** — the one control-request protocol, for a switch's
//!   Detect report and a host's request alike: the client tags a
//!   [`CtrlEvent`] (the same codec the replicated log uses) with a
//!   sequence number, sends it to every replica and re-sends it with
//!   capped backoff until the leader acks it — on *commit*, not receipt;
//!   only the leader logs it;
//! * **Action** — Announce / Resume decisions going *from*
//!   the controller to hosts and switches, tagged with the leader's epoch
//!   (Raft term) so receivers can fence off deposed leaders;
//! * **Raft** — replica-to-replica consensus traffic;
//! * **Forward** — a full 1Pipe datagram relayed through the controller
//!   when the direct path is dead (§5.2's forwarding fallback), carried
//!   opaquely.

use crate::protocol::{CtrlAction, CtrlEvent};
use crate::raft::{LogEntry, RaftMsg};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use onepipe_types::ids::{NodeId, ProcessId};
use onepipe_types::time::Timestamp;
use onepipe_types::wire::Datagram;

/// One management-plane message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MgmtFrame {
    /// From the controller: a decision for a host or switch to carry out,
    /// fenced by the emitting leader's epoch.
    Action {
        /// Raft term of the leader that emitted the action.
        epoch: u64,
        /// The decision itself.
        action: CtrlAction,
    },
    /// A datagram relayed through the controller (forwarding fallback).
    Forward(Datagram),
    /// Consensus traffic between controller replicas.
    Raft {
        /// Sending replica id.
        from: u32,
        /// The Raft message.
        msg: RaftMsg,
    },
    /// A control request that expects an [`MgmtFrame::Ack`]; `seq` is the
    /// client's retry-correlation number.
    Req {
        /// Client-chosen correlation number, echoed in the reply.
        seq: u64,
        /// The request entering the controller log.
        ev: CtrlEvent,
    },
    /// Leader acknowledgement that request `seq` has *committed*.
    Ack {
        /// Correlation number of the acknowledged request.
        seq: u64,
    },
}

impl MgmtFrame {
    /// Serialize for an `Opcode::Mgmt` datagram payload.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        match self {
            MgmtFrame::Action { epoch, action } => {
                b.put_u8(1);
                b.put_u64(*epoch);
                encode_action(action, &mut b);
            }
            MgmtFrame::Forward(d) => {
                b.put_u8(2);
                b.extend_from_slice(&d.encode());
            }
            MgmtFrame::Raft { from, msg } => {
                b.put_u8(3);
                b.put_u32(*from);
                encode_raft(msg, &mut b);
            }
            MgmtFrame::Req { seq, ev } => {
                b.put_u8(4);
                b.put_u64(*seq);
                b.extend_from_slice(&ev.encode());
            }
            MgmtFrame::Ack { seq } => {
                b.put_u8(5);
                b.put_u64(*seq);
            }
        }
        b.freeze()
    }

    /// Decode a frame produced by [`encode`](Self::encode).
    pub fn decode(mut buf: Bytes) -> onepipe_types::Result<Self> {
        use onepipe_types::Error;
        let need = |buf: &Bytes, n: usize| -> onepipe_types::Result<()> {
            if buf.remaining() < n {
                Err(Error::Truncated { needed: n, got: buf.remaining() })
            } else {
                Ok(())
            }
        };
        need(&buf, 1)?;
        let tag = buf.get_u8();
        Ok(match tag {
            1 => {
                need(&buf, 8)?;
                let epoch = buf.get_u64();
                MgmtFrame::Action { epoch, action: decode_action(buf)? }
            }
            2 => MgmtFrame::Forward(Datagram::decode(buf)?),
            3 => {
                need(&buf, 4)?;
                let from = buf.get_u32();
                MgmtFrame::Raft { from, msg: decode_raft(&mut buf)? }
            }
            4 => {
                need(&buf, 8)?;
                let seq = buf.get_u64();
                MgmtFrame::Req { seq, ev: CtrlEvent::decode(buf)? }
            }
            5 => {
                need(&buf, 8)?;
                MgmtFrame::Ack { seq: buf.get_u64() }
            }
            other => return Err(Error::BadOpcode(other)),
        })
    }
}

fn encode_raft(m: &RaftMsg, b: &mut BytesMut) {
    match m {
        RaftMsg::RequestVote { term, last_log_index, last_log_term } => {
            b.put_u8(0);
            b.put_u64(*term);
            b.put_u64(*last_log_index);
            b.put_u64(*last_log_term);
        }
        RaftMsg::Vote { term, granted } => {
            b.put_u8(1);
            b.put_u64(*term);
            b.put_u8(*granted as u8);
        }
        RaftMsg::Append { term, prev_log_index, prev_log_term, entries, leader_commit } => {
            b.put_u8(2);
            b.put_u64(*term);
            b.put_u64(*prev_log_index);
            b.put_u64(*prev_log_term);
            b.put_u64(*leader_commit);
            b.put_u32(entries.len() as u32);
            for e in entries {
                b.put_u64(e.term);
                b.put_u32(e.data.len() as u32);
                b.extend_from_slice(&e.data);
            }
        }
        RaftMsg::AppendResp { term, ok, match_index } => {
            b.put_u8(3);
            b.put_u64(*term);
            b.put_u8(*ok as u8);
            b.put_u64(*match_index);
        }
    }
}

fn decode_raft(buf: &mut Bytes) -> onepipe_types::Result<RaftMsg> {
    use onepipe_types::Error;
    let need = |buf: &Bytes, n: usize| -> onepipe_types::Result<()> {
        if buf.remaining() < n {
            Err(Error::Truncated { needed: n, got: buf.remaining() })
        } else {
            Ok(())
        }
    };
    need(buf, 1)?;
    let tag = buf.get_u8();
    Ok(match tag {
        0 => {
            need(buf, 24)?;
            RaftMsg::RequestVote {
                term: buf.get_u64(),
                last_log_index: buf.get_u64(),
                last_log_term: buf.get_u64(),
            }
        }
        1 => {
            need(buf, 9)?;
            RaftMsg::Vote { term: buf.get_u64(), granted: buf.get_u8() != 0 }
        }
        2 => {
            need(buf, 36)?;
            let term = buf.get_u64();
            let prev_log_index = buf.get_u64();
            let prev_log_term = buf.get_u64();
            let leader_commit = buf.get_u64();
            let n = buf.get_u32() as usize;
            let mut entries = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                need(buf, 12)?;
                let term = buf.get_u64();
                let len = buf.get_u32() as usize;
                need(buf, len)?;
                entries.push(LogEntry { term, data: buf.split_to(len).to_vec() });
            }
            RaftMsg::Append { term, prev_log_index, prev_log_term, entries, leader_commit }
        }
        3 => {
            need(buf, 17)?;
            RaftMsg::AppendResp {
                term: buf.get_u64(),
                ok: buf.get_u8() != 0,
                match_index: buf.get_u64(),
            }
        }
        other => return Err(Error::BadOpcode(other)),
    })
}

fn encode_action(a: &CtrlAction, b: &mut BytesMut) {
    match a {
        CtrlAction::Announce { id, to, failures } => {
            b.put_u8(0);
            b.put_u64(*id);
            b.put_u32(to.0);
            b.put_u32(failures.len() as u32);
            for (p, ts) in failures {
                b.put_u32(p.0);
                b.put_uint(ts.raw(), 6);
            }
        }
        CtrlAction::Resume { at, input } => {
            b.put_u8(1);
            b.put_u32(at.0);
            b.put_u32(input.0);
        }
    }
}

fn decode_action(mut buf: Bytes) -> onepipe_types::Result<CtrlAction> {
    use onepipe_types::Error;
    let need = |buf: &Bytes, n: usize| -> onepipe_types::Result<()> {
        if buf.remaining() < n {
            Err(Error::Truncated { needed: n, got: buf.remaining() })
        } else {
            Ok(())
        }
    };
    need(&buf, 1)?;
    let tag = buf.get_u8();
    Ok(match tag {
        0 => {
            need(&buf, 8 + 4 + 4)?;
            let id = buf.get_u64();
            let to = ProcessId(buf.get_u32());
            let n = buf.get_u32() as usize;
            need(&buf, n * (4 + 6))?;
            let mut failures = Vec::with_capacity(n);
            for _ in 0..n {
                failures.push((ProcessId(buf.get_u32()), Timestamp::from_raw(buf.get_uint(6))));
            }
            CtrlAction::Announce { id, to, failures }
        }
        1 => {
            need(&buf, 4 + 4)?;
            CtrlAction::Resume { at: NodeId(buf.get_u32()), input: NodeId(buf.get_u32()) }
        }
        other => return Err(Error::BadOpcode(other)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepipe_types::wire::{Flags, Opcode, PacketHeader};

    fn ts(v: u64) -> Timestamp {
        Timestamp::from_nanos(v)
    }

    #[test]
    fn frame_codec_roundtrip() {
        let frames = vec![
            MgmtFrame::Req {
                seq: 1,
                ev: CtrlEvent::Detect {
                    reporter: NodeId(4),
                    dead: NodeId(1),
                    last_commit: ts(12_345),
                },
            },
            MgmtFrame::Action {
                epoch: 3,
                action: CtrlAction::Announce {
                    id: 7,
                    to: ProcessId(3),
                    failures: vec![(ProcessId(2), ts(99)), (ProcessId(5), ts(100))],
                },
            },
            MgmtFrame::Action {
                epoch: 9,
                action: CtrlAction::Resume { at: NodeId(0), input: NodeId(2) },
            },
            MgmtFrame::Raft {
                from: 2,
                msg: RaftMsg::RequestVote { term: 5, last_log_index: 9, last_log_term: 4 },
            },
            MgmtFrame::Raft { from: 0, msg: RaftMsg::Vote { term: 5, granted: true } },
            MgmtFrame::Raft {
                from: 1,
                msg: RaftMsg::Append {
                    term: 6,
                    prev_log_index: 2,
                    prev_log_term: 5,
                    entries: vec![
                        LogEntry { term: 6, data: b"abc".to_vec() },
                        LogEntry { term: 6, data: vec![] },
                    ],
                    leader_commit: 2,
                },
            },
            MgmtFrame::Raft {
                from: 2,
                msg: RaftMsg::AppendResp { term: 6, ok: false, match_index: 0 },
            },
            MgmtFrame::Req {
                seq: 11,
                ev: CtrlEvent::CallbackComplete { announce_id: 2, from: ProcessId(1) },
            },
            MgmtFrame::Ack { seq: 11 },
            MgmtFrame::Forward(Datagram {
                src: ProcessId(0),
                dst: ProcessId(1),
                header: PacketHeader {
                    msg_ts: ts(1),
                    barrier: ts(2),
                    commit_barrier: ts(3),
                    psn: 4,
                    opcode: Opcode::DataReliable,
                    flags: Flags::END_OF_MESSAGE,
                },
                payload: Bytes::from_static(b"relayed"),
            }),
        ];
        for f in frames {
            let decoded = MgmtFrame::decode(f.encode()).unwrap();
            assert_eq!(decoded, f);
        }
    }

    #[test]
    fn frame_codec_rejects_garbage() {
        assert!(MgmtFrame::decode(Bytes::new()).is_err());
        // Tag 0 (a fire-and-forget report) and tag 6 (a redirect toward the
        // believed leader) are retired: frames that once decoded no longer
        // do.
        let detect = CtrlEvent::Detect { reporter: NodeId(4), dead: NodeId(1), last_commit: ts(9) };
        let report = [&[0][..], &detect.encode()].concat();
        let redirect = vec![6, 0, 0, 0, 0, 0, 0, 0, 12, 0, 0, 0, 1];
        for frame in [report, redirect, vec![7]] {
            let tag = frame[0];
            assert!(matches!(
                MgmtFrame::decode(Bytes::from(frame)),
                Err(onepipe_types::Error::BadOpcode(t)) if t == tag
            ));
        }
        assert!(MgmtFrame::decode(Bytes::from_static(&[1, 9, 0])).is_err());
        // Action with a length prefix pointing past the buffer.
        assert!(MgmtFrame::decode(Bytes::from_static(&[
            1, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 3, 0, 0, 0, 255
        ]))
        .is_err());
        // Action tag 2 is retired.
        assert!(matches!(
            MgmtFrame::decode(Bytes::from_static(&[1, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0])),
            Err(onepipe_types::Error::BadOpcode(2))
        ));
    }
}
