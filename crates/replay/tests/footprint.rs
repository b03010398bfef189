//! Resource footprint of a live replay: threads scale with queriers, not
//! with sources or connections, and every thread and fd the engine opens
//! is gone once `run` returns.
//!
//! Counts come from `/proc/self` (Linux). The test is alone in its own
//! binary so no sibling test's threads or sockets move them.

use std::net::IpAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ldp_replay::{LiveReplay, ReplayMode};
use ldp_server::auth::AuthEngine;
use ldp_server::live::LiveServer;
use ldp_trace::{Protocol, TraceRecord};
use ldp_wire::{Name, RrType};
use ldp_workload::zones::wildcard_example_zone;
use ldp_zone::ZoneSet;

const SOURCES_PER_PROTOCOL: u32 = 200;
const QUERIERS: usize = 2;

fn threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap()
}

fn fds() -> u64 {
    std::fs::read_dir("/proc/self/fd").unwrap().count() as u64
}

/// Two queries from each of 200 UDP and 200 TCP sources, interleaved.
fn trace() -> Vec<TraceRecord> {
    let mut records = Vec::new();
    for round in 0..2u32 {
        for s in 0..2 * SOURCES_PER_PROTOCOL {
            let i = round * 2 * SOURCES_PER_PROTOCOL + s;
            let src = IpAddr::from([10, 1, (s >> 8) as u8, s as u8]);
            let mut rec = TraceRecord::udp_query(
                u64::from(i) * 10,
                src,
                1024,
                Name::parse(&format!("q{i}.example.com")).unwrap(),
                RrType::A,
            );
            if s >= SOURCES_PER_PROTOCOL {
                rec.protocol = Protocol::Tcp;
            }
            records.push(rec);
        }
    }
    records
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn replay_leaves_no_thread_or_fd_behind() {
    let mut set = ZoneSet::new();
    set.insert(wildcard_example_zone());
    let engine = Arc::new(AuthEngine::with_zones(Arc::new(set)));
    let server = LiveServer::spawn(engine, "127.0.0.1:0".parse().unwrap())
        .await
        .unwrap();

    let peak = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let (peak, stop) = (peak.clone(), stop.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(threads(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(500));
            }
        })
    };
    let (threads0, fds0) = (threads(), fds());

    let mut replay = LiveReplay::new(server.addr);
    replay.mode = ReplayMode::Fast;
    replay.queriers_per_distributor = QUERIERS;
    replay.drain = Duration::from_secs(2);
    let report = replay.run(trace()).await.unwrap();
    let conns = server.stats.tcp_connections.load(Ordering::Relaxed);

    // Right after `run`, only the server's connection threads (and their
    // sockets) may still be around: every replay thread and client socket
    // is already gone.
    let (threads1, fds1) = (threads(), fds());
    assert!(
        threads1 <= threads0 + conns,
        "{threads1} threads after run, {threads0} before, {conns} server connections"
    );
    assert!(
        fds1 <= fds0 + conns,
        "{fds1} fds after run, {fds0} before, {conns} server connections"
    );
    // The server's connection threads see EOF and exit.
    let deadline = Instant::now() + Duration::from_secs(1);
    while (threads(), fds()) != (threads0, fds0) {
        assert!(
            Instant::now() < deadline,
            "threads {} (before {threads0}), fds {} (before {fds0}) 1 s after run",
            threads(),
            fds()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    stop.store(true, Ordering::Relaxed);
    sampler.join().unwrap();
    let peak = peak.load(Ordering::Relaxed);
    let bound = threads0 + conns + 2 * QUERIERS as u64 + 4;
    assert!(
        peak <= bound,
        "peak {peak} threads > {bound} ({threads0} before, {conns} server connections)"
    );
    assert_eq!(report.sent, u64::from(4 * SOURCES_PER_PROTOCOL));
    assert_eq!(
        conns,
        u64::from(SOURCES_PER_PROTOCOL),
        "one connection per TCP source"
    );
    assert!(
        report.answered >= report.sent * 9 / 10,
        "answered {}",
        report.answered
    );
}
