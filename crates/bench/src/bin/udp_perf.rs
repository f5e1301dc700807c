//! Loopback UDP transport benchmark: batched vs per-datagram data plane.
//!
//! Runs the same two phases over each path:
//!
//! * **closed-loop latency** — one reliable append at a time, process 0 →
//!   process 1, measuring submit-to-delivery wall time (p50/p99);
//! * **open-loop throughput** — every process scatters best-effort
//!   messages to its neighbour for a fixed window while the main thread
//!   drains deliveries.
//!
//! The batched path coalesces multiple 1Pipe datagrams per UDP sendmsg /
//! recvfrom; the baseline path (`coalesce(false)`) is the legacy
//! one-datagram-per-syscall wire. Frames equal syscalls on both paths, so
//! `msgs_per_syscall = (rx+tx datagrams) / (rx+tx frames)` is the
//! batching win, and by construction the baseline ratio is 1.0.
//!
//! Writes `BENCH_udp.json` at the repo root (schema in results/README.md).
//! `--smoke` shrinks iteration counts for CI.

use onepipe_core::config::EndpointConfig;
use onepipe_netsim::stats::Samples;
use onepipe_types::ids::ProcessId;
use onepipe_types::message::Message;
use onepipe_udp::batch::{UdpStatsSnapshot, BATCH_HIST_BUCKETS};
use onepipe_udp::{UdpCluster, UdpClusterBuilder};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct PathReport {
    name: &'static str,
    latency_p50_us: f64,
    latency_p99_us: f64,
    latency_samples: usize,
    throughput_msgs_per_s: f64,
    throughput_sent: u64,
    throughput_received: u64,
    msgs_per_syscall: f64,
    frames: u64,
    datagrams: u64,
    tx_batch_hist: [u64; BATCH_HIST_BUCKETS],
}

impl PathReport {
    fn print(&self) {
        println!(
            "{:>10}:  p50 {:>8.1} µs  p99 {:>8.1} µs  ({} samples)",
            self.name, self.latency_p50_us, self.latency_p99_us, self.latency_samples
        );
        println!(
            "{:>10}   {:>10.0} msgs/s delivered ({}/{} received), {:.3} msgs/syscall over {} frames",
            "", self.throughput_msgs_per_s, self.throughput_received, self.throughput_sent,
            self.msgs_per_syscall, self.frames,
        );
    }

    fn json(&self) -> String {
        let hist: Vec<String> = self.tx_batch_hist.iter().map(|v| v.to_string()).collect();
        let mut s = String::new();
        let _ = write!(
            s,
            "    \"{}\": {{\n      \"latency_p50_us\": {:.2},\n      \"latency_p99_us\": {:.2},\n      \"latency_samples\": {},\n      \"throughput_msgs_per_sec\": {:.1},\n      \"throughput_sent\": {},\n      \"throughput_received\": {},\n      \"msgs_per_syscall\": {:.4},\n      \"syscalls_est\": {},\n      \"datagrams\": {},\n      \"tx_batch_hist\": [{}]\n    }}",
            self.name,
            self.latency_p50_us,
            self.latency_p99_us,
            self.latency_samples,
            self.throughput_msgs_per_s,
            self.throughput_sent,
            self.throughput_received,
            self.msgs_per_syscall,
            self.frames,
            self.datagrams,
            hist.join(", "),
        );
        s
    }
}

/// Closed-loop reliable appends p0 -> p1; one outstanding at a time.
fn latency_phase(cluster: &UdpCluster, iters: usize) -> Samples {
    let mut samples_us = Samples::new();
    for i in 0..iters {
        let t0 = Instant::now();
        cluster.process(0).send_reliable(vec![Message::new(ProcessId(1), format!("lat{i}"))]);
        if cluster.process(1).recv_timeout(Duration::from_secs(10)).is_some() {
            samples_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    samples_us
}

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

fn run_path(name: &'static str, coalesce: bool, smoke: bool) -> PathReport {
    let n = 4;
    let cluster = UdpClusterBuilder::new(n)
        .config(EndpointConfig::default())
        .coalesce(coalesce)
        .build()
        .expect("bind loopback cluster");
    // Let barriers start flowing before measuring.
    std::thread::sleep(Duration::from_millis(100));

    let lat_iters = if smoke { 50 } else { 400 };
    let samples = latency_phase(&cluster, lat_iters);

    let before: UdpStatsSnapshot = cluster.stats();
    let window = if smoke { Duration::from_millis(500) } else { Duration::from_secs(3) };
    let burst = 8;
    let (sent, received, msgs_per_s) = throughput_phase(&cluster, window, burst);
    let during = cluster.stats().since(&before);

    cluster.shutdown();
    PathReport {
        name,
        latency_p50_us: samples.percentile(0.50),
        latency_p99_us: samples.percentile(0.99),
        latency_samples: samples.len(),
        throughput_msgs_per_s: msgs_per_s,
        throughput_sent: sent,
        throughput_received: received,
        msgs_per_syscall: during.msgs_per_syscall(),
        frames: during.rx_frames + during.tx_frames,
        datagrams: during.rx_datagrams + during.tx_datagrams,
        tx_batch_hist: during.tx_batch_hist,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mode = if smoke { "smoke" } else { "full" };
    println!("udp_perf ({mode} mode)");

    let batched = run_path("batched", true, smoke);
    let baseline = run_path("baseline", false, smoke);
    batched.print();
    baseline.print();

    let batched_wins = batched.msgs_per_syscall > baseline.msgs_per_syscall;
    println!(
        "batched {:.3} vs baseline {:.3} msgs/syscall -> batched_beats_baseline = {}",
        batched.msgs_per_syscall, baseline.msgs_per_syscall, batched_wins
    );

    let mut body = String::new();
    body.push_str("{\n");
    let _ = writeln!(body, "  \"generated_by\": \"udp_perf\",");
    let _ = writeln!(body, "  \"mode\": \"{mode}\",");
    let _ = writeln!(body, "  \"batched_beats_baseline_msgs_per_syscall\": {batched_wins},");
    body.push_str("  \"paths\": {\n");
    body.push_str(&batched.json());
    body.push_str(",\n");
    body.push_str(&baseline.json());
    body.push_str("\n  }\n}\n");

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_udp.json");
    match std::fs::write(&path, &body) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("udp_perf: could not write {}: {e}", path.display()),
    }
    assert!(
        batched_wins,
        "regression: batched path must beat the per-datagram baseline on msgs/syscall"
    );
}
