//! Property-based tests (proptest) of 1Pipe's core invariants: the 48-bit
//! timestamp ring, wire codecs, fragmentation, the reorder buffer against
//! a model and against the ordered map it used to be, barrier
//! aggregation's lower-bound property, and clock monotonicity.

use bytes::Bytes;
use onepipe::service::frag::{fragment_message, parse_fragment, START_OF_MESSAGE};
use onepipe::service::reorder::{FailedMsg, Insert, MsgKey, ReorderBuffer};
use onepipe::switchlogic::barrier::BarrierAggregator;
use onepipe::types::ids::{NodeId, ProcessId};
use onepipe::types::message::Delivered;
use onepipe::types::message::OrderKey;
use onepipe::types::time::{Timestamp, TIMESTAMP_MASK};
use onepipe::types::wire::{Datagram, Flags, Opcode, PacketHeader};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    /// Ring comparison is a total order on any window < half the ring.
    #[test]
    fn timestamp_window_total_order(base in 0u64..TIMESTAMP_MASK, offs in proptest::collection::vec(0u64..(1 << 40), 3)) {
        let ts: Vec<Timestamp> = offs
            .iter()
            .map(|&o| Timestamp::from_raw(base.wrapping_add(o)))
            .collect();
        // Antisymmetry + transitivity on the sampled triple.
        for a in &ts {
            for b in &ts {
                if a < b {
                    prop_assert!(b > a);
                }
                if a == b {
                    prop_assert!((a >= b) && (b >= a));
                }
            }
        }
        let (a, b, c) = (ts[0], ts[1], ts[2]);
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
    }

    /// diff/since/wrapping_add agree.
    #[test]
    fn timestamp_arithmetic_consistent(base in 0u64..TIMESTAMP_MASK, d in 0u64..(1 << 40)) {
        let a = Timestamp::from_raw(base);
        let b = a.wrapping_add(d);
        prop_assert_eq!(b.since(a), d);
        prop_assert_eq!(b.diff(a), d as i64);
        prop_assert_eq!(a.diff(b), -(d as i64));
    }

    /// Wire header roundtrips for arbitrary field values.
    #[test]
    fn header_roundtrip(
        ts in 0u64..TIMESTAMP_MASK,
        barrier in 0u64..TIMESTAMP_MASK,
        commit in 0u64..TIMESTAMP_MASK,
        psn in any::<u32>(),
        op in 0u8..=8,
        flags in any::<u8>(),
    ) {
        let h = PacketHeader {
            msg_ts: Timestamp::from_raw(ts),
            barrier: Timestamp::from_raw(barrier),
            commit_barrier: Timestamp::from_raw(commit),
            psn,
            opcode: Opcode::from_u8(op).unwrap(),
            flags: Flags::from_bits(flags),
        };
        let mut buf = bytes::BytesMut::new();
        h.encode(&mut buf);
        let decoded = PacketHeader::decode(&mut buf.freeze()).unwrap();
        prop_assert_eq!(decoded, h);
    }

    /// Full datagrams roundtrip with arbitrary payloads.
    #[test]
    fn datagram_roundtrip(src in any::<u32>(), dst in any::<u32>(), payload in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let d = Datagram {
            src: ProcessId(src),
            dst: ProcessId(dst),
            header: PacketHeader::data(Timestamp::from_nanos(1), 0, Flags::empty()),
            payload: Bytes::from(payload),
        };
        prop_assert_eq!(Datagram::decode(d.encode()).unwrap(), d);
    }

    /// Decoding arbitrary garbage never panics.
    #[test]
    fn decode_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = Datagram::decode(Bytes::from(bytes));
    }

    /// defrag(frag(m)) == m for any payload and MTU.
    #[test]
    fn fragmentation_roundtrip(
        seq in any::<u64>(),
        midx in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..5000),
        mtu in 1usize..1500,
    ) {
        let data = Bytes::from(payload.clone());
        let frags = fragment_message(seq, midx, &data, mtu);
        prop_assert!(frags[0].flags.contains(START_OF_MESSAGE));
        prop_assert!(frags.last().unwrap().flags.contains(Flags::END_OF_MESSAGE));
        let mut rebuilt = Vec::new();
        for f in &frags {
            let (s, m, rest) = parse_fragment(f.payload.clone()).unwrap();
            prop_assert_eq!(s, seq);
            prop_assert_eq!(m, midx);
            rebuilt.extend_from_slice(&rest);
        }
        prop_assert_eq!(rebuilt, payload);
    }

    /// Reorder buffer vs a model: insert single-fragment messages with
    /// arbitrary keys and advance through arbitrary barriers; deliveries
    /// must equal "sort, then split at each barrier" and never reorder.
    #[test]
    fn reorder_buffer_matches_model(
        msgs in proptest::collection::vec((1u64..1000, 0u32..8, 0u64..4), 1..60),
        barriers in proptest::collection::vec(1u64..1200, 1..6),
    ) {
        let mut rb = ReorderBuffer::new(false, false);
        let flags = START_OF_MESSAGE | Flags::END_OF_MESSAGE;
        let mut model: Vec<OrderKey> = Vec::new();
        let mut delivered = Vec::new();
        let mut late = 0usize;
        let mut sorted_barriers = barriers.clone();
        sorted_barriers.sort();
        let mut b_iter = sorted_barriers.iter();
        let chunk = (msgs.len() / barriers.len()).max(1);
        let mut seen_keys = std::collections::HashSet::new();
        for (i, &(ts, sender, seq)) in msgs.iter().enumerate() {
            let key = OrderKey {
                ts: Timestamp::from_nanos(ts),
                sender: ProcessId(sender),
                seq,
            };
            // In the real protocol a (sender, seq) pair is a unique
            // scattering, and retransmissions reuse the original PSN; a
            // same-key fragment under a fresh PSN cannot occur. Skip such
            // generator collisions.
            if !seen_keys.insert(key) {
                continue;
            }
            match rb.insert_fragment(key, 0, i as u32, flags, Bytes::from_static(b"x")) {
                Insert::Late => late += 1,
                _ => {
                    model.push(key);
                }
            }
            if i % chunk == chunk - 1 {
                if let Some(&b) = b_iter.next() {
                    let (d, failed) = rb.advance(Timestamp::from_nanos(b));
                    prop_assert!(failed.is_empty());
                    delivered.extend(d.into_iter().map(|m| m.order_key()));
                }
            }
        }
        let (d, _) = rb.advance(Timestamp::from_nanos(5_000));
        delivered.extend(d.into_iter().map(|m| m.order_key()));
        // Every delivery in non-decreasing order.
        for w in delivered.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        // Everything accepted was delivered exactly once.
        let mut model_sorted = model.clone();
        model_sorted.sort();
        let mut delivered_sorted = delivered.clone();
        delivered_sorted.sort();
        prop_assert_eq!(delivered_sorted, model_sorted);
        // Late count only grows when barriers already passed the key.
        prop_assert!(late <= msgs.len());
    }

    /// Barrier aggregation: the output never exceeds any live input
    /// register, and it is monotone.
    #[test]
    fn aggregator_lower_bound_and_monotone(
        updates in proptest::collection::vec((0u32..4, 0u64..100_000), 1..200),
    ) {
        let inputs: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut agg = BarrierAggregator::new(inputs.clone());
        // Track per-link maxima (registers are clamped monotone).
        let mut reg = [0u64; 4];
        let mut last_out = Timestamp::ZERO;
        let mut all_heard = [false; 4];
        for (i, &(link, val)) in updates.iter().enumerate() {
            agg.observe_be(NodeId(link), Timestamp::from_nanos(val), i as u64);
            reg[link as usize] = reg[link as usize].max(val);
            all_heard[link as usize] = true;
            let out = agg.out_be(0);
            prop_assert!(out >= last_out, "output must be monotone");
            last_out = out;
            if all_heard.iter().all(|&h| h) {
                let min_reg = *reg.iter().min().unwrap();
                prop_assert!(
                    out.raw() <= min_reg,
                    "barrier {} must lower-bound the min register {}",
                    out.raw(),
                    min_reg
                );
            } else {
                prop_assert_eq!(out, Timestamp::ZERO);
            }
        }
    }

    /// Clocks stay monotone for arbitrary query times.
    #[test]
    fn clock_monotone_for_arbitrary_queries(
        seed in any::<u64>(),
        mut times in proptest::collection::vec(0u64..10_000_000_000, 2..50),
    ) {
        use onepipe::clock::{ClockFleet, SyncDiscipline};
        times.sort();
        let mut fleet = ClockFleet::new(2, SyncDiscipline::default(), seed);
        let mut last = Timestamp::ZERO;
        for &t in &times {
            let now = fleet.now(0, t);
            prop_assert!(now >= last);
            last = now;
        }
    }

    /// Controller event codec roundtrips.
    #[test]
    fn ctrl_event_codec_roundtrip(
        reporter in any::<u32>(),
        dead in any::<u32>(),
        commit in 0u64..TIMESTAMP_MASK,
    ) {
        use onepipe::controller::CtrlEvent;
        let ev = CtrlEvent::Detect {
            reporter: NodeId(reporter),
            dead: NodeId(dead),
            last_commit: Timestamp::from_raw(commit),
        };
        prop_assert_eq!(CtrlEvent::decode(ev.encode()).unwrap(), ev);
    }

    /// Zipf sampling stays in range for arbitrary sizes.
    #[test]
    fn zipf_in_range(n in 1u64..100_000, seed in any::<u64>()) {
        use onepipe::apps::workload::Zipfian;
        use rand::SeedableRng;
        let z = Zipfian::new(n, 0.99);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }
}

proptest! {
    /// Reorder buffer under adversarial input: multi-fragment messages
    /// arrive shuffled with duplicated fragments, some messages are
    /// missing a fragment, barriers advance mid-stream, and scattering /
    /// sender discards run before the final flush. Invariants: exact
    /// reassembly, at-most-once delivery, globally non-decreasing
    /// delivery order, incomplete survivors surface as failed, discarded
    /// messages never deliver, and byte accounting drains to zero.
    #[test]
    fn reorder_buffer_survives_adversarial_fragments(
        specs in proptest::collection::vec((1u64..800, 0u32..4, 0u64..8, 1usize..5), 4..30),
        barriers in proptest::collection::vec(1u64..900, 1..4),
        shuffle_seed in any::<u64>(),
        discard_fts in 1u64..800,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rb = ReorderBuffer::new(false, false);
        let mut rng = rand::rngs::StdRng::seed_from_u64(shuffle_seed);

        // Dedupe scattering keys; messages get contiguous PSN ranges.
        let mut seen = std::collections::HashSet::new();
        let mut msgs = Vec::new();
        for (i, &(ts, sender, seq, nfrags)) in specs.iter().enumerate() {
            let key = OrderKey { ts: Timestamp::from_nanos(ts), sender: ProcessId(sender), seq };
            if !seen.insert(key) {
                continue;
            }
            let withhold = nfrags >= 2 && i % 5 == 0; // drop one interior fragment
            let base = (i as u32) * 16;
            let frags: Vec<(u32, Vec<u8>)> = (0..nfrags)
                .map(|j| {
                    let len = (i + j) % 37 + 1;
                    (base + j as u32, vec![(i * 31 + j * 7) as u8; len])
                })
                .collect();
            msgs.push((key, frags, withhold, nfrags));
        }

        // Insertion ops: every kept fragment once, every third twice.
        let mut ops: Vec<(usize, usize)> = Vec::new();
        for (m, (_, frags, withhold, _)) in msgs.iter().enumerate() {
            for f in 0..frags.len() {
                if *withhold && f == frags.len() / 2 {
                    continue;
                }
                ops.push((m, f));
                if (m + f) % 3 == 0 {
                    ops.push((m, f)); // duplicate (retransmission)
                }
            }
        }
        // Fisher–Yates with the generated seed.
        for i in (1..ops.len()).rev() {
            ops.swap(i, rng.random_range(0..=i));
        }

        let mut sorted_barriers = barriers.clone();
        sorted_barriers.sort();
        let mut b_iter = sorted_barriers.iter();
        let chunk = (ops.len() / (barriers.len() + 1)).max(1);

        let mut delivered: Vec<(OrderKey, Bytes)> = Vec::new();
        let mut failed_keys: Vec<OrderKey> = Vec::new();
        let mut entered = vec![false; msgs.len()];
        for (op_idx, &(m, f)) in ops.iter().enumerate() {
            let (key, frags, _, nfrags) = &msgs[m];
            let (psn, data) = &frags[f];
            let mut fl = Flags::empty();
            if f == 0 {
                fl = fl | START_OF_MESSAGE;
            }
            if f == nfrags - 1 {
                fl = fl | Flags::END_OF_MESSAGE;
            }
            match rb.insert_fragment(*key, 0, *psn, fl, Bytes::from(data.clone())) {
                Insert::Late => {}
                Insert::Ready(_) => prop_assert!(false, "ordered mode never returns Ready"),
                Insert::Buffered => entered[m] = true,
            }
            if op_idx % chunk == chunk - 1 {
                if let Some(&b) = b_iter.next() {
                    let (d, fails) = rb.advance(Timestamp::from_nanos(b));
                    delivered.extend(d.into_iter().map(|x| (x.order_key(), x.payload)));
                    failed_keys.extend(fails.into_iter().map(|fm| fm.key.key));
                }
            }
        }

        // Discard phase: recall every 7th message, then cut one sender
        // above `discard_fts` (§5.2 Discard).
        let mut discarded = std::collections::HashSet::new();
        for (m, (key, _, _, _)) in msgs.iter().enumerate() {
            if m % 7 == 0 && rb.discard_scattering(key.sender, key.ts, key.seq) {
                discarded.insert(*key);
            }
        }
        let cut_sender = ProcessId(0);
        let cut_ts = Timestamp::from_nanos(discard_fts);
        rb.discard_from(cut_sender, cut_ts);
        for (key, _, _, _) in &msgs {
            if key.sender == cut_sender && key.ts > cut_ts {
                discarded.insert(*key);
            }
        }

        // Flush everything.
        let (d, fails) = rb.advance(Timestamp::from_nanos(10_000));
        let flush_start = delivered.len();
        delivered.extend(d.into_iter().map(|x| (x.order_key(), x.payload)));
        failed_keys.extend(fails.into_iter().map(|fm| fm.key.key));
        prop_assert!(rb.is_empty());
        prop_assert_eq!(rb.buffered_bytes(), 0);

        // At-most-once, globally ordered, exact payloads.
        let mut seen_delivered = std::collections::HashSet::new();
        for w in delivered.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "delivery order regressed");
        }
        for (key, payload) in &delivered {
            prop_assert!(seen_delivered.insert(*key), "duplicate delivery {key:?}");
            let (_, frags, withhold, _) =
                msgs.iter().find(|(k, ..)| k == key).expect("unknown delivery");
            prop_assert!(!withhold, "incomplete message delivered");
            let expect: Vec<u8> =
                frags.iter().flat_map(|(_, d)| d.iter().copied()).collect();
            prop_assert_eq!(&payload[..], &expect[..], "payload corrupted for {key:?}");
        }
        // Flush-phase deliveries exclude everything discarded.
        for (key, _) in &delivered[flush_start..] {
            prop_assert!(!discarded.contains(key), "discarded message delivered");
        }
        // Failed ⟂ delivered; failures only for entered-incomplete messages.
        for key in &failed_keys {
            prop_assert!(!seen_delivered.contains(key), "message both failed and delivered");
            let (m, (_, _, withhold, _)) = msgs
                .iter()
                .enumerate()
                .find(|(_, (k, ..))| k == key)
                .expect("unknown failure");
            prop_assert!(entered[m], "never-buffered message reported failed");
            // Complete messages only fail when a straggler fragment
            // arrived after the barrier passed (Insert::Late path).
            let _ = withhold;
        }
        // Every withheld message that entered and was neither discarded
        // nor passed-before-entry must surface exactly once as failed.
        for (m, (key, _, withhold, _)) in msgs.iter().enumerate() {
            if *withhold && entered[m] && !discarded.contains(key) {
                let n = failed_keys.iter().filter(|k| *k == key).count();
                prop_assert_eq!(n, 1, "withheld message not reported failed: {key:?}");
            }
        }
    }
}

/// The reorder buffer as an ordered map from message to its fragments by
/// PSN — the structure `ReorderBuffer` used before its key-ordered ring,
/// kept here as the reference the ring is checked against.
struct MapBuffer {
    pending: BTreeMap<MsgKey, MapMsg>,
    edge: Timestamp,
    inclusive: bool,
    unordered: bool,
    bytes: usize,
    max_bytes: usize,
}

#[derive(Default)]
struct MapMsg {
    frags: BTreeMap<u32, Bytes>,
    start_psn: Option<u32>,
    end_psn: Option<u32>,
    bytes: usize,
}

impl MapMsg {
    fn is_complete(&self) -> bool {
        match (self.start_psn, self.end_psn) {
            (Some(s), Some(e)) => e.wrapping_sub(s) as usize + 1 == self.frags.len(),
            _ => false,
        }
    }

    fn deliver(self, mk: MsgKey) -> Delivered {
        let payload: Vec<u8> = self.frags.values().flat_map(|f| f.iter().copied()).collect();
        Delivered { ts: mk.key.ts, src: mk.key.sender, seq: mk.key.seq, payload: payload.into() }
    }
}

impl MapBuffer {
    fn new(inclusive: bool, unordered: bool) -> Self {
        MapBuffer {
            pending: BTreeMap::new(),
            edge: Timestamp::ZERO,
            inclusive,
            unordered,
            bytes: 0,
            max_bytes: 0,
        }
    }

    fn passes(inclusive: bool, ts: Timestamp, barrier: Timestamp) -> bool {
        if inclusive {
            ts <= barrier
        } else {
            ts < barrier
        }
    }

    fn insert_fragment(
        &mut self,
        key: OrderKey,
        midx: u16,
        psn: u32,
        flags: Flags,
        data: Bytes,
    ) -> Insert {
        if self.edge != Timestamp::ZERO && Self::passes(self.inclusive, key.ts, self.edge) {
            return Insert::Late;
        }
        let mk = MsgKey { key, midx };
        let msg = self.pending.entry(mk).or_default();
        if flags.contains(START_OF_MESSAGE) {
            msg.start_psn = Some(psn);
        }
        if flags.contains(Flags::END_OF_MESSAGE) {
            msg.end_psn = Some(psn);
        }
        if !msg.frags.contains_key(&psn) {
            msg.bytes += data.len();
            self.bytes += data.len();
            self.max_bytes = self.max_bytes.max(self.bytes);
            msg.frags.insert(psn, data);
        }
        if self.unordered && msg.is_complete() {
            let msg = self.pending.remove(&mk).unwrap();
            self.bytes -= msg.bytes;
            return Insert::Ready(msg.deliver(mk));
        }
        Insert::Buffered
    }

    fn advance(&mut self, barrier: Timestamp) -> (Vec<Delivered>, Vec<FailedMsg>) {
        let (mut delivered, mut failed) = (Vec::new(), Vec::new());
        if self.unordered
            || barrier == Timestamp::ZERO
            || (self.edge != Timestamp::ZERO && barrier <= self.edge)
        {
            return (delivered, failed);
        }
        while let Some(entry) = self.pending.first_entry() {
            if !Self::passes(self.inclusive, entry.key().key.ts, barrier) {
                break;
            }
            let mk = *entry.key();
            let msg = entry.remove();
            self.bytes -= msg.bytes;
            if msg.is_complete() {
                delivered.push(msg.deliver(mk));
            } else {
                failed.push(FailedMsg { key: mk, psn: *msg.frags.keys().next().unwrap() });
            }
        }
        self.edge = barrier;
        (delivered, failed)
    }

    fn discard(&mut self, doomed: impl Fn(&OrderKey) -> bool) -> usize {
        let keys: Vec<MsgKey> = self.pending.keys().filter(|mk| doomed(&mk.key)).copied().collect();
        for mk in &keys {
            self.bytes -= self.pending.remove(mk).unwrap().bytes;
        }
        keys.len()
    }
}

proptest! {
    /// The reorder ring against the ordered map, operation by operation:
    /// multi-fragment messages (several per scattering) arrive in key
    /// order displaced by up to `span` places — from nearly sorted to
    /// fully shuffled — with duplicated and withheld fragments, barriers
    /// that advance, repeat and regress, `discard_from` and
    /// `discard_scattering`, under the strict, inclusive and unordered
    /// rules. Every insert outcome, delivered and failed list, discard
    /// count, `buffered_bytes`, `max_bytes`, `len` and the edge agree.
    #[test]
    fn reorder_ring_matches_ordered_map(
        specs in proptest::collection::vec((1u64..400, 0u32..4, 0u64..6, 0u16..3, 1u32..4), 1..40),
        mode in 0u8..3,
        span in 0usize..64,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (inclusive, unordered) = (mode == 1, mode == 2);
        let mut ring = ReorderBuffer::new(inclusive, unordered);
        let mut map = MapBuffer::new(inclusive, unordered);

        // Fragments in key order, each message on its own PSN range.
        let mut frags: Vec<(MsgKey, u32, Flags, Bytes)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (i, &(ts, sender, seq, midx, nfrags)) in specs.iter().enumerate() {
            let key = OrderKey { ts: Timestamp::from_nanos(ts), sender: ProcessId(sender), seq };
            if !seen.insert((key, midx)) {
                continue;
            }
            for j in 0..nfrags {
                let mut flags = Flags::empty();
                if j == 0 {
                    flags = flags | START_OF_MESSAGE;
                }
                if j == nfrags - 1 {
                    flags = flags | Flags::END_OF_MESSAGE;
                }
                let data = Bytes::from(vec![(i * 8 + j as usize) as u8; 1 + (i + j as usize) % 5]);
                frags.push((MsgKey { key, midx }, i as u32 * 8 + j, flags, data));
            }
        }
        frags.sort_by_key(|(mk, psn, ..)| (*mk, *psn));
        for i in (1..frags.len()).rev() {
            frags.swap(i, rng.random_range(i.saturating_sub(span)..=i));
        }

        let mut barrier = 0u64;
        for (mk, psn, flags, data) in &frags {
            for _ in 0..1 + (rng.random_range(0..8u32) == 0) as u32 {
                if rng.random_range(0..16u32) == 0 {
                    continue; // withheld (lost)
                }
                let got = ring.insert_fragment(mk.key, mk.midx, *psn, *flags, data.clone());
                let want = map.insert_fragment(mk.key, mk.midx, *psn, *flags, data.clone());
                prop_assert_eq!(got, want);
            }
            match rng.random_range(0..24u32) {
                0..=3 => {
                    // Mostly forward; sometimes repeated or behind the edge.
                    barrier = match rng.random_range(0..4u32) {
                        0 => barrier.saturating_sub(rng.random_range(0..40u64)),
                        1 => barrier,
                        _ => barrier + rng.random_range(1..60u64),
                    };
                    let b = Timestamp::from_nanos(barrier);
                    prop_assert_eq!(ring.advance(b), map.advance(b));
                }
                4 => {
                    let (sender, ts) = (ProcessId(rng.random_range(0..4u32)), Timestamp::from_nanos(rng.random_range(1..400u64)));
                    let got = ring.discard_from(sender, ts);
                    prop_assert_eq!(got, map.discard(|k| k.sender == sender && k.ts > ts));
                }
                5 => {
                    let k = mk.key;
                    let got = ring.discard_scattering(k.sender, k.ts, k.seq);
                    let want = map.discard(|o| o.sender == k.sender && o.ts == k.ts && o.seq == k.seq);
                    prop_assert_eq!(got, want > 0);
                }
                _ => {}
            }
            prop_assert_eq!(ring.buffered_bytes(), map.bytes);
            prop_assert_eq!(ring.max_bytes, map.max_bytes);
            prop_assert_eq!(ring.len(), map.pending.len());
            prop_assert_eq!(ring.edge(), map.edge);
        }
        let end = Timestamp::from_nanos(1_000);
        prop_assert_eq!(ring.advance(end), map.advance(end));
        prop_assert_eq!(ring.buffered_bytes(), map.bytes);
        prop_assert_eq!(ring.len(), map.pending.len());
    }
}
