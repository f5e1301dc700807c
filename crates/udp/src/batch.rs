//! Batched I/O plumbing for the UDP transport: the one receive routine
//! (`PacketRx`), the one transmit helper (`PacketTx`), and the
//! cluster-wide I/O counters.
//!
//! One UDP frame is either a bare [`Datagram`] (management frames leave
//! that way) or a batch frame (`onepipe_types::wire::BATCH_MAGIC`)
//! carrying several datagrams behind length prefixes — see
//! [`decode_frame`]. The receive path reads into one buffer per socket
//! and copies each frame out into a buffer of exactly its length, which
//! the frame's datagram payloads then share: whatever holds a payload
//! pins that one frame and nothing more.

use bytes::{Bytes, BytesMut};
use onepipe_controller::MgmtFrame;
use onepipe_core::endpoint::HOP_LOCAL;
use onepipe_types::time::Timestamp;
use onepipe_types::wire::{
    decode_frame, BatchEncoder, Datagram, Flags, Opcode, PacketHeader, BATCH_ENTRY_OVERHEAD,
    BATCH_HEADER_LEN,
};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Receive buffer size: the largest UDP datagram loopback can deliver.
const RECV_BUF_LEN: usize = 65536;

/// Cap on one coalesced TX frame. Well under the 64 KiB UDP limit so a
/// burst splits into several realistic frames instead of one jumbo.
const DEFAULT_MAX_FRAME: usize = 16 * 1024;

// The three receive timeouts, applied by `RxBurst::recv` and nowhere else,
// and all that `run_node` (lib.rs) waits on: a node thread sleeps only in
// `recv`. `SO_RCVTIMEO` is jiffy-granular on the kernels this runs on, so
// on an empty socket each of them really waits ≈ 8 ms. A process ends its
// burst only when the socket is empty, so it handles a burst only after
// its last `recv` has timed out: that wait, nine hops deep, is the 72 ms
// loopback p50 (DESIGN §7.1). The switch and the replicas end their
// bursts at their deadlines and after one frame, so they pay it only when
// idle. ROADMAP item 2 replaces `RX_DRAIN` with a non-blocking `recv` and
// has `run_node` sleep until the node's next deadline instead of waiting
// `RX_IDLE`/`RX_CTRL_IDLE`.

/// First `recv` of a burst on a host's or the soft switch's socket.
pub(crate) const RX_IDLE: Duration = Duration::from_micros(50);

/// Every later `recv` of a burst: stop as soon as the queue is empty.
const RX_DRAIN: Duration = Duration::from_micros(1);

/// First `recv` of a burst on a controller replica's socket: the
/// management plane is low-rate, and Raft ticks at this granularity.
pub(crate) const RX_CTRL_IDLE: Duration = Duration::from_millis(1);

/// Number of TX batch-size histogram buckets: bucket `i` (1-based count)
/// counts frames carrying `i` datagrams, the last bucket is `>= 16`.
pub const BATCH_HIST_BUCKETS: usize = 16;

/// Cluster-wide transport I/O counters, shared by every driver thread
/// (hosts, soft switch, controller replicas). Frames are syscalls;
/// datagrams are 1Pipe packets — their ratio is the batching win.
#[derive(Default)]
pub struct UdpStats {
    rx_frames: AtomicU64,
    rx_datagrams: AtomicU64,
    rx_bytes: AtomicU64,
    tx_frames: AtomicU64,
    tx_datagrams: AtomicU64,
    tx_bytes: AtomicU64,
    /// Undecodable input: frames or framed entries the decoder rejected.
    /// Counted, never silently swallowed (they used to be).
    decode_errors: AtomicU64,
    /// `Committed` notices a process dropped for an application that
    /// held `COMMITTED_HELD_MAX` (lib.rs) unread.
    committed_drops: AtomicU64,
    tx_batch_hist: [AtomicU64; BATCH_HIST_BUCKETS],
}

impl UdpStats {
    fn note_rx_frame(&self, bytes: usize) {
        self.rx_frames.fetch_add(1, Ordering::Relaxed);
        self.rx_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn note_rx_datagram(&self) {
        self.rx_datagrams.fetch_add(1, Ordering::Relaxed);
    }

    fn note_decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_committed_drop(&self) {
        self.committed_drops.fetch_add(1, Ordering::Relaxed);
    }

    fn note_tx_frame(&self, datagrams: usize, bytes: usize) {
        self.tx_frames.fetch_add(1, Ordering::Relaxed);
        self.tx_datagrams.fetch_add(datagrams as u64, Ordering::Relaxed);
        self.tx_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        let bucket = datagrams.clamp(1, BATCH_HIST_BUCKETS) - 1;
        self.tx_batch_hist[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy of the counters.
    pub fn snapshot(&self) -> UdpStatsSnapshot {
        let mut hist = [0u64; BATCH_HIST_BUCKETS];
        for (out, c) in hist.iter_mut().zip(&self.tx_batch_hist) {
            *out = c.load(Ordering::Relaxed);
        }
        UdpStatsSnapshot {
            rx_frames: self.rx_frames.load(Ordering::Relaxed),
            rx_datagrams: self.rx_datagrams.load(Ordering::Relaxed),
            rx_bytes: self.rx_bytes.load(Ordering::Relaxed),
            tx_frames: self.tx_frames.load(Ordering::Relaxed),
            tx_datagrams: self.tx_datagrams.load(Ordering::Relaxed),
            tx_bytes: self.tx_bytes.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            committed_drops: self.committed_drops.load(Ordering::Relaxed),
            tx_batch_hist: hist,
        }
    }
}

/// Point-in-time copy of [`UdpStats`]; see [`UdpCluster::stats`].
///
/// [`UdpCluster::stats`]: crate::UdpCluster::stats
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UdpStatsSnapshot {
    /// UDP packets received (one `recv_from` syscall each).
    pub rx_frames: u64,
    /// 1Pipe datagrams successfully decoded out of received frames.
    pub rx_datagrams: u64,
    /// Payload bytes received, at frame granularity.
    pub rx_bytes: u64,
    /// UDP packets sent (one `send_to` syscall each).
    pub tx_frames: u64,
    /// 1Pipe datagrams carried by sent frames.
    pub tx_datagrams: u64,
    /// Bytes sent, at frame granularity.
    pub tx_bytes: u64,
    /// Frames or framed entries the decoder rejected.
    pub decode_errors: u64,
    /// `UserEvent::Committed` notices dropped because the application
    /// left the cap of them unread.
    pub committed_drops: u64,
    /// TX frames by datagram count: bucket `i` = frames carrying `i + 1`
    /// datagrams; the last bucket aggregates everything larger.
    pub tx_batch_hist: [u64; BATCH_HIST_BUCKETS],
}

impl UdpStatsSnapshot {
    /// Messages per syscall across both directions — the headline
    /// batching metric (1.0 when every frame carries one datagram).
    pub fn msgs_per_syscall(&self) -> f64 {
        let frames = self.rx_frames + self.tx_frames;
        if frames == 0 {
            return 0.0;
        }
        (self.rx_datagrams + self.tx_datagrams) as f64 / frames as f64
    }

    /// Counter-wise difference (`self - earlier`), for measuring a
    /// bounded phase between two snapshots.
    pub fn since(&self, earlier: &UdpStatsSnapshot) -> UdpStatsSnapshot {
        let mut hist = [0u64; BATCH_HIST_BUCKETS];
        for (i, h) in hist.iter_mut().enumerate() {
            *h = self.tx_batch_hist[i] - earlier.tx_batch_hist[i];
        }
        UdpStatsSnapshot {
            rx_frames: self.rx_frames - earlier.rx_frames,
            rx_datagrams: self.rx_datagrams - earlier.rx_datagrams,
            rx_bytes: self.rx_bytes - earlier.rx_bytes,
            tx_frames: self.tx_frames - earlier.tx_frames,
            tx_datagrams: self.tx_datagrams - earlier.tx_datagrams,
            tx_bytes: self.tx_bytes - earlier.tx_bytes,
            decode_errors: self.decode_errors - earlier.decode_errors,
            committed_drops: self.committed_drops - earlier.committed_drops,
            tx_batch_hist: hist,
        }
    }
}

/// The receive side of one socket, and the one place this crate turns
/// `recv_from` syscalls into datagrams: it owns the receive buffer, the
/// socket's receive timeout, the frame decode and the RX counters
/// (undecodable input is counted here, never handed on).
pub(crate) struct PacketRx<'a> {
    sock: &'a UdpSocket,
    /// Where `recv_from` lands, allocated once; each frame is copied out
    /// of it, so nothing downstream ever holds it.
    buf: Box<[u8]>,
    stats: Arc<UdpStats>,
    /// What the first `recv` of a burst waits for.
    idle: Duration,
    /// What `SO_RCVTIMEO` is set to now.
    timeout: Option<Duration>,
}

impl<'a> PacketRx<'a> {
    pub(crate) fn new(sock: &'a UdpSocket, idle: Duration, stats: Arc<UdpStats>) -> Self {
        let buf = vec![0; RECV_BUF_LEN].into_boxed_slice();
        PacketRx { sock, buf, stats, idle, timeout: None }
    }

    /// Start a burst: a run of `recv`s of which the first waits `idle`
    /// for traffic and the rest only drain what is already queued. The
    /// caller decides when the burst ends by dropping it.
    pub(crate) fn burst(&mut self) -> RxBurst<'_, 'a> {
        let wait = self.idle;
        RxBurst { rx: self, wait }
    }
}

/// One RX burst of a [`PacketRx`]; see [`PacketRx::burst`].
pub(crate) struct RxBurst<'r, 'a> {
    rx: &'r mut PacketRx<'a>,
    /// Timeout of the next `recv`.
    wait: Duration,
}

impl RxBurst<'_, '_> {
    /// Receive one frame and hand each datagram in it to `handle`, with
    /// the frame's sender. Returns `false`, without calling `handle`, when
    /// the socket had nothing within the timeout.
    pub(crate) fn recv(&mut self, mut handle: impl FnMut(Datagram, SocketAddr)) -> bool {
        let rx = &mut *self.rx;
        if rx.timeout != Some(self.wait) {
            rx.sock.set_read_timeout(Some(self.wait)).ok();
            rx.timeout = Some(self.wait);
        }
        let Ok((len, from)) = rx.sock.recv_from(&mut rx.buf) else { return false };
        self.wait = RX_DRAIN;
        rx.stats.note_rx_frame(len);
        for decoded in decode_frame(Bytes::copy_from_slice(&rx.buf[..len])) {
            match decoded {
                Ok(d) => {
                    rx.stats.note_rx_datagram();
                    handle(d, from);
                }
                Err(_) => rx.stats.note_decode_error(),
            }
        }
        true
    }
}

/// The one place this crate turns datagrams into `send_to` syscalls.
///
/// Every transmit path — host wire emissions, soft-switch forwards,
/// management frames, controller actions — goes through a `PacketTx`, so
/// encoding reuses one scratch buffer (no per-send allocation) and the
/// I/O counters can't be bypassed. Queued datagrams to the same
/// destination share batch frames of up to [`DEFAULT_MAX_FRAME`] bytes.
pub(crate) struct PacketTx {
    scratch: BytesMut,
    /// Per-destination queues; destinations number in the tens at most,
    /// so a linear scan beats a map.
    queues: Vec<DestQueue>,
    stats: Arc<UdpStats>,
}

/// The datagrams waiting to leave for one destination.
struct DestQueue {
    to: SocketAddr,
    datagrams: Vec<Datagram>,
    /// Size of one batch frame holding all of `datagrams`.
    frame_len: usize,
}

impl PacketTx {
    pub(crate) fn new(stats: Arc<UdpStats>) -> Self {
        PacketTx { scratch: BytesMut::new(), queues: Vec::new(), stats }
    }

    /// Transmit one datagram immediately, bypassing the queue — the
    /// control-plane path (management frames, controller actions), where
    /// retry timers assume the frame is on the wire when the call returns.
    pub(crate) fn send_now(&mut self, sock: &UdpSocket, to: SocketAddr, d: &Datagram) {
        self.scratch.clear();
        d.encode_into(&mut self.scratch);
        let _ = sock.send_to(&self.scratch[..], to);
        self.stats.note_tx_frame(1, self.scratch.len());
    }

    /// Wrap `frame` in an `Opcode::Mgmt` datagram and transmit it now.
    pub(crate) fn send_mgmt(&mut self, sock: &UdpSocket, to: SocketAddr, frame: &MgmtFrame) {
        let d = Datagram {
            src: HOP_LOCAL,
            dst: HOP_LOCAL,
            header: PacketHeader {
                msg_ts: Timestamp::ZERO,
                barrier: Timestamp::ZERO,
                commit_barrier: Timestamp::ZERO,
                psn: 0,
                opcode: Opcode::Mgmt,
                flags: Flags::empty(),
            },
            payload: frame.encode(),
        };
        self.send_now(sock, to, &d);
    }

    /// Queue a datagram toward `to`; transmits early if the destination's
    /// pending frame would overflow [`DEFAULT_MAX_FRAME`].
    pub(crate) fn push(&mut self, sock: &UdpSocket, to: SocketAddr, d: Datagram) {
        let qi = match self.queues.iter().position(|q| q.to == to) {
            Some(i) => i,
            None => {
                self.queues.push(DestQueue {
                    to,
                    datagrams: Vec::new(),
                    frame_len: BATCH_HEADER_LEN,
                });
                self.queues.len() - 1
            }
        };
        let q = &mut self.queues[qi];
        q.frame_len += BATCH_ENTRY_OVERHEAD + d.encoded_len();
        q.datagrams.push(d);
        if q.frame_len >= DEFAULT_MAX_FRAME {
            self.flush_dest(sock, qi);
        }
    }

    /// Transmit every queued datagram, preserving per-destination FIFO.
    pub(crate) fn flush(&mut self, sock: &UdpSocket) {
        for qi in 0..self.queues.len() {
            self.flush_dest(sock, qi);
        }
    }

    fn flush_dest(&mut self, sock: &UdpSocket, qi: usize) {
        let q = &mut self.queues[qi];
        if q.datagrams.is_empty() {
            return;
        }
        q.frame_len = BATCH_HEADER_LEN;
        let (to, ds) = (q.to, std::mem::take(&mut q.datagrams));
        let mut i = 0;
        while i < ds.len() {
            self.scratch.clear();
            let mut enc = BatchEncoder::new(&mut self.scratch);
            // Always take at least one datagram per frame; stop before
            // overflowing the cap (an oversized single datagram still
            // goes out alone — UDP will fragment or reject it).
            enc.push(&ds[i]);
            i += 1;
            while i < ds.len()
                && !enc.is_full()
                && enc.frame_len() + BATCH_ENTRY_OVERHEAD + ds[i].encoded_len() <= DEFAULT_MAX_FRAME
            {
                enc.push(&ds[i]);
                i += 1;
            }
            let count = enc.finish() as usize;
            let _ = sock.send_to(&self.scratch[..], to);
            self.stats.note_tx_frame(count, self.scratch.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepipe_types::ids::ProcessId;
    use onepipe_types::wire::{encode_batch_into, ADDR_LEN};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Counts the bytes this thread allocates (the harness runs tests
    /// side by side). Frees are not counted.
    struct Counting;

    thread_local! {
        static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    }

    // SAFETY: defers to `System` unchanged; the counter is a
    // const-initialized thread-local `Cell` with no destructor, so touching
    // it neither allocates nor runs during thread teardown.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATED.with(|n| n.set(n.get() + layout.size()));
            // SAFETY: same contract as ours.
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System.alloc` with this layout.
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATED.with(|n| n.set(n.get() + new_size));
            // SAFETY: same contract as ours.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    /// Bytes `f` allocates on this thread.
    fn bytes_allocated(f: impl FnOnce()) -> usize {
        let before = ALLOCATED.with(Cell::get);
        f();
        ALLOCATED.with(Cell::get) - before
    }

    fn datagram(psn: u32, payload: &[u8]) -> Datagram {
        Datagram {
            src: ProcessId(1),
            dst: ProcessId(2),
            header: PacketHeader::data(Timestamp::from_nanos(psn as u64), psn, Flags::empty()),
            payload: Bytes::copy_from_slice(payload),
        }
    }

    fn socket_pair() -> (UdpSocket, UdpSocket, SocketAddr) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        let to = b.local_addr().unwrap();
        (a, b, to)
    }

    #[test]
    fn recv_hands_on_good_datagrams_and_counts_the_rest() {
        let (a, b, to) = socket_pair();
        let stats = Arc::new(UdpStats::default());
        let mut rx = PacketRx::new(&b, RX_IDLE, stats.clone());
        let mut seen = Vec::new();

        // An empty socket: idle, and the handler is not called.
        assert!(!rx.burst().recv(|d, _| seen.push(d)));
        assert!(seen.is_empty());
        assert_eq!(stats.snapshot(), UdpStatsSnapshot::default());

        // A batch frame of three whose middle entry has a bad opcode...
        let ds = [datagram(1, b"first"), datagram(2, b"corrupt"), datagram(3, b"third")];
        let mut frame = BytesMut::new();
        encode_batch_into(&ds, &mut frame);
        let opcode_in_header = 22;
        let mid = BATCH_HEADER_LEN + 2 * BATCH_ENTRY_OVERHEAD + ds[0].encoded_len();
        frame[mid + ADDR_LEN + opcode_in_header] = 0xFF;
        a.send_to(&frame, to).unwrap();
        // ...then a bare datagram, then a frame that is neither.
        let bare = datagram(4, b"bare");
        a.send_to(&bare.encode(), to).unwrap();
        a.send_to(b"\x00not a datagram at all", to).unwrap();

        let mut burst = rx.burst();
        for _ in 0..3 {
            let got = burst.recv(|d, from| {
                assert_eq!(from, a.local_addr().unwrap());
                seen.push(d);
            });
            assert!(got, "loopback delivers in order, at once");
        }
        assert!(!burst.recv(|d, _| seen.push(d)), "drained");
        assert_eq!(seen, [ds[0].clone(), ds[2].clone(), bare]);
        let s = stats.snapshot();
        assert_eq!((s.rx_frames, s.rx_datagrams, s.decode_errors), (3, 3, 2));
    }

    /// A received frame costs the heap about its own length, not a
    /// receive buffer: a datagram still held from the previous frame (as
    /// the reorder buffer or a TX queue holds one) pins only that frame,
    /// so the next `recv` has nothing to replace.
    #[test]
    fn a_held_datagram_pins_only_its_own_frame() {
        let (a, b, to) = socket_pair();
        let mut rx = PacketRx::new(&b, RX_IDLE, Arc::new(UdpStats::default()));
        let d = datagram(1, &[7u8; 64]);
        let frame = d.encode();
        assert!(frame.len() < 128, "a ~100 B frame");
        let mut held = Vec::with_capacity(2);
        a.send_to(&frame, to).unwrap();
        assert!(rx.burst().recv(|d, _| held.push(d)));
        a.send_to(&frame, to).unwrap();
        let bytes = bytes_allocated(|| {
            assert!(rx.burst().recv(|d, _| held.push(d)));
        });
        assert_eq!(held, [d.clone(), d]);
        assert!(bytes < 1024, "receiving a {} B frame allocated {bytes} B", frame.len());
    }

    /// `push` transmits when the destination's pending frame reaches
    /// `DEFAULT_MAX_FRAME`, judged from a running byte count: the frames
    /// and flush points are those of re-summing the queue on every push.
    #[test]
    fn push_flushes_a_destination_when_its_frame_fills() {
        let (a, _b, to) = socket_pair();
        let stats = Arc::new(UdpStats::default());
        let mut tx = PacketTx::new(stats.clone());
        let d = datagram(0, &[0u8; 64]);
        let entry = BATCH_ENTRY_OVERHEAD + d.encoded_len();
        // The push that takes the pending frame to the cap...
        let fill = (DEFAULT_MAX_FRAME - BATCH_HEADER_LEN).div_ceil(entry);
        for _ in 0..fill - 1 {
            tx.push(&a, to, d.clone());
        }
        assert_eq!(stats.snapshot().tx_frames, 0, "below the cap nothing leaves");
        tx.push(&a, to, d.clone());
        // ...sends everything queued: one frame that fits under the cap
        // and the one datagram that did not.
        let s = stats.snapshot();
        assert_eq!((s.tx_frames, s.tx_datagrams), (2, fill as u64));
        assert_eq!((s.tx_batch_hist[BATCH_HIST_BUCKETS - 1], s.tx_batch_hist[0]), (1, 1));
        // The count starts over: the same number of pushes fills it again.
        for _ in 0..fill - 1 {
            tx.push(&a, to, d.clone());
        }
        assert_eq!(stats.snapshot().tx_frames, 2);
        tx.flush(&a);
        let s = stats.snapshot();
        assert_eq!((s.tx_frames, s.tx_datagrams), (3, 2 * fill as u64 - 1));
        assert_eq!(s.tx_batch_hist.iter().sum::<u64>(), s.tx_frames);
    }
}
