//! Allocation budget of the log tier's steady state.
//!
//! Every per-append table of the service is a `Vec` indexed by a dense
//! id, and an in-order batch leaves the sequence gate without a heap run.
//! So a tick with nothing to do costs no allocation, an in-order append
//! costs only its share of the record log's growth, and an ack that
//! retires a batch costs only its share of the latency histogram's. A
//! counting global allocator pins those written-down numbers.

use bytes::Bytes;
use onepipe_core::simhost::{AppHook, SendQueue};
use onepipe_log::proto::{tag, Ack, RecordSet, WireRecord};
use onepipe_log::{LogConfig, LogService, ShardState};
use onepipe_types::ids::{HostId, ProcessId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations (the harness runs tests side by
/// side). Frees are not counted: everything freed was allocated.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers to `System` unchanged; the counter is a const-initialized
// thread-local `Cell` with no destructor, so touching it neither allocates
// nor runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as ours.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as ours.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Shards 0 and 1, client process 2, subscriber process 3.
fn config() -> LogConfig {
    LogConfig {
        n_shards: 2,
        n_clients: 1,
        n_subs: 1,
        n_streams: 4,
        replicate: true,
        fanout: 1,
        window: 2,
        ..LogConfig::default()
    }
}

const CLIENT: ProcessId = ProcessId(2);
const SUB: ProcessId = ProcessId(3);

fn payload() -> Bytes {
    Bytes::from(vec![0xB5; 64])
}

/// Client ticks allocated per 1 000 while the client's next batch waits
/// for credit: the stall is counted in a table it already touched.
const STALLED_CLIENT_TICKS_BUDGET: u64 = 0;

#[test]
fn client_ticks_stalled_on_credit_do_not_allocate() {
    let mut svc = LogService::new(config());
    for _ in 0..5 {
        svc.submit(0, 1, payload());
    }
    let mut out = SendQueue::default();
    svc.on_tick(1_000, HostId(0), &[CLIENT], &mut out);
    assert_eq!(out.sends.len(), 2, "the window admits two batches");
    let stalls = svc.client_tenants.get(1).expect("the third batch stalled").stalls;

    // Well inside the resend timeout: no resend scan either.
    let n = allocations(|| {
        for t in 0..1_000 {
            let mut out = SendQueue::default();
            svc.on_tick(2_000 + t, HostId(0), &[CLIENT], &mut out);
            assert!(out.is_empty());
        }
    });
    assert_eq!(n, STALLED_CLIENT_TICKS_BUDGET, "{n} allocations in 1 000 stalled client ticks");
    assert_eq!(svc.client_tenants.get(1).unwrap().stalls, stalls + 1_000, "every tick stalled");
    assert_eq!(svc.unacked_total(), 5);
}

/// Subscriber ticks allocated per 1 000 while no stream is due for a
/// pull-repair: the deadline check returns before any scan.
const IDLE_SUB_TICKS_BUDGET: u64 = 0;

#[test]
fn subscriber_ticks_with_nothing_due_do_not_allocate() {
    let cfg = config();
    let mut svc = LogService::new(cfg.clone());
    let mut out = SendQueue::default();
    svc.on_tick(1_000, HostId(0), &[SUB], &mut out);
    assert_eq!(out.raw.len(), cfg.n_streams as usize, "joined: one SUBSCRIBE per stream");

    // Stream 0's shard reports a longer log than the subscriber holds,
    // and offset 1 waits behind the gap at 0: the stream is behind, due
    // for a FETCH once `fetch_after_ns` passes without progress.
    let record =
        WireRecord { offset: 1, client: 0, seq: 1, appended_at: 1_500, payload: payload() };
    let set = RecordSet { stream: 0, log_len: 5, records: vec![record] }.encode(tag::RECORD);
    svc.on_raw(2_000, SUB, ProcessId(0), &set, &mut out);

    let n = allocations(|| {
        for t in 0..1_000 {
            let mut out = SendQueue::default();
            svc.on_tick(3_000 + t, HostId(0), &[SUB], &mut out);
            assert!(out.is_empty());
        }
    });
    assert_eq!(n, IDLE_SUB_TICKS_BUDGET, "{n} allocations in 1 000 idle subscriber ticks");

    // The deadline is exact: nothing at it, the FETCH just after it.
    let mut out = SendQueue::default();
    svc.on_tick(cfg.fetch_after_ns, HostId(0), &[SUB], &mut out);
    assert!(out.is_empty());
    svc.on_tick(cfg.fetch_after_ns + 1, HostId(0), &[SUB], &mut out);
    assert_eq!(out.raw.len(), 1);
    assert_eq!(out.raw[0].2[0], tag::FETCH);
}

/// Times the record log may grow in 1 000 in-order appends to one stream
/// (capacity doubling from 4); each growth is one allocation and nothing
/// else may allocate.
const RECORD_LOG_GROWTHS: u64 = 10;

#[test]
fn in_order_appends_allocate_only_the_record_log_growth() {
    let mut shard = ShardState::new();
    let payload = payload();
    shard.apply(3, 0, 0, payload.clone()); // the stream, its gate, its counters
    let capacity = |shard: &ShardState| shard.stream(3).map_or(0, |s| s.records.capacity());
    let mut growths = 0;
    let n = allocations(|| {
        for seq in 1..=1_000 {
            let cap = capacity(&shard);
            let applied = shard.apply(3, 0, seq, payload.clone());
            assert_eq!(applied.appended, seq..seq + 1);
            growths += u64::from(capacity(&shard) != cap);
        }
    });
    assert!(
        n <= growths,
        "{n} allocations in 1 000 in-order appends; the log grew {growths} times"
    );
    assert!(growths <= RECORD_LOG_GROWTHS, "the record log grew {growths} times");
    assert_eq!(shard.len(3), 1_001);
}

/// Allocations for one ack that retires one batch: at most the latency
/// sample's vector growing, and that amortised — no more than
/// `ACK_GROWTHS` over 1 000 acks (capacity doubling from 4).
const ACK_BUDGET: u64 = 1;
const ACK_GROWTHS: u64 = 10;

#[test]
fn an_ack_that_retires_a_batch_allocates_only_its_latency_sample() {
    let mut svc = LogService::new(config());
    let owner = ProcessId(svc.owner(1).expect("both shards live"));
    let mut per_ack = Vec::new();
    for seq in 0..1_000u64 {
        let t = 10_000 * (seq + 1);
        svc.submit(0, 1, payload());
        let mut out = SendQueue::default();
        svc.on_tick(t, HostId(0), &[CLIENT], &mut out);
        assert_eq!(out.sends.len(), 1, "batch {seq} admitted");
        let ack = Ack { stream: 1, seq_next: seq + 1, log_len: seq + 1, credit: 2 }.encode();
        let mut out = SendQueue::default();
        per_ack.push(allocations(|| svc.on_raw(t + 5_000, CLIENT, owner, &ack, &mut out)));
        assert!(out.is_empty(), "nothing pending to admit");
    }
    assert_eq!(svc.acked_appends, 1_000);
    assert_eq!(svc.unacked_total(), 0);
    // The first ack opens the stream's latency histogram.
    let steady = &per_ack[1..];
    let worst = steady.iter().copied().max().unwrap_or(0);
    assert!(worst <= ACK_BUDGET, "{worst} allocations for one ack, budget {ACK_BUDGET}");
    let growths: u64 = steady.iter().sum();
    assert!(growths <= ACK_GROWTHS, "{growths} allocations in 999 acks");
}
