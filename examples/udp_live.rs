//! Live 1Pipe over real UDP sockets (no simulator).
//!
//! Spins up four processes plus a software ToR on 127.0.0.1 and runs the
//! same ordered-scattering API over genuine datagrams: the endpoint state
//! machine is sans-io, so the simulator and this transport share all the
//! protocol code.
//!
//! Run with: `cargo run --example udp_live`

use onepipe::types::ids::ProcessId;
use onepipe::types::message::Message;
use onepipe::udp::UdpClusterBuilder;
use std::time::{Duration, Instant};

fn main() {
    let cluster = UdpClusterBuilder::new(4).build().expect("bind sockets");
    println!("4 processes + soft switch live on 127.0.0.1");
    std::thread::sleep(Duration::from_millis(50)); // barriers warm up

    // Three senders scatter to receiver p3, interleaved in real time.
    for round in 0..5 {
        for sender in 0..3usize {
            cluster
                .process(sender)
                .send_unreliable(vec![Message::new(ProcessId(3), format!("u{sender}.{round}"))]);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // And one reliable scattering to everyone.
    cluster.process(0).send_reliable(vec![
        Message::new(ProcessId(1), "fin"),
        Message::new(ProcessId(2), "fin"),
        Message::new(ProcessId(3), "fin"),
    ]);

    let deadline = Instant::now() + Duration::from_secs(5);
    let mut got = Vec::new();
    while Instant::now() < deadline && got.len() < 16 {
        if let Some((m, reliable)) = cluster.process(3).recv_timeout(Duration::from_millis(100)) {
            got.push((m, reliable));
        }
    }
    println!("\ndeliveries at p3, in total order:");
    // The best-effort and reliable services are *separate* ordered
    // channels (§2.1); order is guaranteed within each.
    let mut last = [None, None];
    for (m, reliable) in &got {
        println!(
            "  ts={:?} from {:?}: {:?}{}",
            m.ts,
            m.src,
            String::from_utf8_lossy(&m.payload),
            if *reliable { " [reliable]" } else { "" }
        );
        let ch = *reliable as usize;
        if let Some(prev) = last[ch] {
            assert!(prev <= m.order_key(), "total order violated");
        }
        last[ch] = Some(m.order_key());
    }
    println!("\n{} messages delivered over real UDP, in non-decreasing order.", got.len());
    cluster.shutdown();
}
