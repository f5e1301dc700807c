//! Loopback UDP transport benchmark: open-loop best-effort throughput.
//!
//! Every process scatters best-effort messages to its ring neighbour for a
//! fixed window while the main thread drains deliveries. Nothing else in
//! the repository measures this: `benchmark/`'s `udp_rel_window` is
//! closed-loop and reliable (and is where the transport's latency is
//! reported).
//!
//! Frames equal syscalls, so `msgs_per_syscall = (rx+tx datagrams) /
//! (rx+tx frames)` is how much the per-destination coalescing buys, and
//! `tx_batch_hist` is its distribution.
//!
//! Writes `BENCH_udp.json` at the repo root (schema in results/README.md)
//! and fails unless frames coalesced and traffic arrived. `--smoke`
//! shortens the window for CI.

use onepipe_types::ids::ProcessId;
use onepipe_types::message::Message;
use onepipe_udp::{UdpCluster, UdpClusterBuilder};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Open-loop best-effort scatter, every process to its ring neighbour,
/// bursts of `burst` per process per spin.
fn throughput_phase(cluster: &UdpCluster, window: Duration, burst: usize) -> (u64, u64, f64) {
    let n = cluster.len();
    let mut sent = 0u64;
    let mut received = 0u64;
    let t0 = Instant::now();
    while t0.elapsed() < window {
        for p in 0..n {
            let to = ProcessId(((p + 1) % n) as u32);
            let msgs: Vec<Message> =
                (0..burst).map(|_| Message::new(to, bytes::Bytes::from_static(b"tput"))).collect();
            cluster.process(p).send_unreliable(msgs);
            sent += burst as u64;
        }
        for p in 0..n {
            received += cluster.process(p).try_recv_all().len() as u64;
        }
        // Loopback needs a breather or the socket buffers overflow and
        // the numbers measure drops, not the transport.
        std::thread::sleep(Duration::from_micros(200));
    }
    // Drain the tail.
    let drain_deadline = Instant::now() + Duration::from_millis(500);
    while Instant::now() < drain_deadline {
        let mut got = 0;
        for p in 0..n {
            got += cluster.process(p).try_recv_all().len();
        }
        received += got as u64;
        if got == 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    (sent, received, received as f64 / elapsed)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mode = if smoke { "smoke" } else { "full" };
    println!("udp_perf ({mode} mode)");

    let cluster = UdpClusterBuilder::new(4).build().expect("bind loopback cluster");
    // Let barriers start flowing before measuring.
    std::thread::sleep(Duration::from_millis(100));
    let before = cluster.stats();
    let window = if smoke { Duration::from_millis(500) } else { Duration::from_secs(3) };
    let (sent, received, msgs_per_s) = throughput_phase(&cluster, window, 8);
    let during = cluster.stats().since(&before);
    cluster.shutdown();

    let msgs_per_syscall = during.msgs_per_syscall();
    let frames = during.rx_frames + during.tx_frames;
    let datagrams = during.rx_datagrams + during.tx_datagrams;
    println!(
        "{msgs_per_s:>10.0} msgs/s delivered ({received}/{sent} received), \
         {msgs_per_syscall:.3} msgs/syscall over {frames} frames"
    );

    let hist: Vec<String> = during.tx_batch_hist.iter().map(|v| v.to_string()).collect();
    let mut body = String::new();
    body.push_str("{\n");
    let _ = writeln!(body, "  \"generated_by\": \"udp_perf\",");
    let _ = writeln!(body, "  \"mode\": \"{mode}\",");
    let _ = writeln!(body, "  \"throughput_msgs_per_sec\": {msgs_per_s:.1},");
    let _ = writeln!(body, "  \"throughput_sent\": {sent},");
    let _ = writeln!(body, "  \"throughput_received\": {received},");
    let _ = writeln!(body, "  \"msgs_per_syscall\": {msgs_per_syscall:.4},");
    let _ = writeln!(body, "  \"syscalls_est\": {frames},");
    let _ = writeln!(body, "  \"datagrams\": {datagrams},");
    let _ = writeln!(body, "  \"tx_batch_hist\": [{}]", hist.join(", "));
    body.push_str("}\n");

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_udp.json");
    match std::fs::write(&path, &body) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("udp_perf: could not write {}: {e}", path.display()),
    }
    assert!(
        msgs_per_syscall > 1.0 && received > 0,
        "regression: frames must coalesce and best-effort traffic must arrive \
         ({msgs_per_syscall:.3} msgs/syscall, {received} received)"
    );
}
