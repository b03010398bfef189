//! Per-layer costs measured from outside: each stage times a call into one
//! crate's public API over the workload's own records, and (in the traced
//! binary) counts the allocations that call makes.

use std::hint::black_box;
use std::net::{IpAddr, Ipv4Addr};
use std::time::Instant;

use ldp_replay::{Batcher, ReplayPlan};
use ldp_server::auth::AuthEngine;
use ldp_server::pktcache::PacketCache;
use ldp_trace::{Protocol, TraceRecord};
use ldp_wire::Message;

use crate::alloc::thread_allocs;
use crate::report::Metrics;

/// Repetitions of each stage loop; the median is reported.
const REPS: usize = 3;

/// Server-side packet-cache capacity (as `LiveServer` configures it).
const PKTCACHE_CAP: usize = 8_192;

/// Cost of one `Instant::now()` pair, subtracted from per-call timings.
pub fn clock_overhead_ns() -> u64 {
    let mut samples: Vec<u64> = (0..1_001)
        .map(|_| {
            let t = Instant::now();
            black_box(t).elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Runs `stage` (one pass over all `n` inputs) `REPS` times; returns the
/// median ns per input, the allocations per input of the first pass, and
/// the last pass's output.
fn time_stage<T>(n: usize, mut stage: impl FnMut() -> T) -> (f64, f64, T) {
    let n = n.max(1) as f64;
    let mut ns = Vec::with_capacity(REPS);
    let mut allocs = 0.0;
    let mut out = None;
    for rep in 0..REPS {
        drop(out.take());
        let a0 = thread_allocs();
        let t0 = Instant::now();
        let o = black_box(stage());
        ns.push(t0.elapsed().as_nanos() as f64 / n);
        if rep == 0 {
            allocs = (thread_allocs() - a0) as f64 / n;
        }
        out = Some(o);
    }
    ns.sort_by(f64::total_cmp);
    (ns[REPS / 2], allocs, out.expect("REPS > 0"))
}

/// Measures the routing, wire, server and pktcache stages on `sample`
/// with `queriers` querier shards, adding each `*_ns` / `*_allocs` metric.
pub fn measure(
    sample: &[TraceRecord],
    engine: &AuthEngine,
    queriers: usize,
    timed: bool,
    m: &mut Metrics,
) -> Result<(), String> {
    let n = sample.len();
    let client = IpAddr::V4(Ipv4Addr::LOCALHOST);
    let queries: Vec<Message> = sample
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut q = r.message.clone();
            q.header.id = i as u16;
            q
        })
        .collect();

    // ldp-replay plan: the Postman's routing and batching of each record.
    let horizon_us = if timed { 100_000 } else { u64::MAX };
    let (route_ns, _, _) = time_stage(n, || {
        let mut batcher: Batcher<u32> = Batcher::new(ReplayPlan::new(1, queriers), 256, horizon_us);
        let mut flushes = Vec::new();
        for (i, rec) in sample.iter().enumerate() {
            batcher.push(rec.src, rec.time_us, i as u32, &mut flushes);
            for (_, spine) in flushes.drain(..) {
                batcher.donate(spine);
            }
        }
        batcher.finish().len()
    });
    m.add("replay.route_ns", route_ns, "ns");

    // ldp-wire: the querier's per-send query encode.
    let (ns, allocs, wires) = time_stage(n, || {
        queries
            .iter()
            .map(|q| q.to_bytes().unwrap_or_default())
            .collect::<Vec<Vec<u8>>>()
    });
    m.add("wire.query_encode_ns", ns, "ns");
    m.add("wire.query_encode_allocs", allocs, "allocs");

    // The server miss path: decode → AuthEngine::respond → encode.
    let (ns, allocs, decoded) = time_stage(n, || {
        wires
            .iter()
            .filter_map(|w| Message::from_bytes(w).ok())
            .collect::<Vec<Message>>()
    });
    if decoded.len() != n {
        return Err(format!(
            "{} of {n} encoded queries failed to decode",
            n - decoded.len()
        ));
    }
    m.add("wire.query_decode_ns", ns, "ns");
    m.add("wire.query_decode_allocs", allocs, "allocs");
    let over_stream: Vec<bool> = sample.iter().map(|r| r.protocol != Protocol::Udp).collect();
    let (ns, allocs, responses) = time_stage(n, || {
        decoded
            .iter()
            .zip(&over_stream)
            .map(|(q, &s)| engine.respond(client, q, s))
            .collect::<Vec<Message>>()
    });
    m.add("server.respond_ns", ns, "ns");
    m.add("server.respond_allocs", allocs, "allocs");
    let (ns, allocs, response_wires) = time_stage(n, || {
        responses
            .iter()
            .map(|r| r.to_bytes().unwrap_or_default())
            .collect::<Vec<Vec<u8>>>()
    });
    m.add("wire.response_encode_ns", ns, "ns");
    m.add("wire.response_encode_allocs", allocs, "allocs");

    // ldp-server pktcache: the server's lookup on every UDP query (a
    // miss is followed by an untimed insert, as the server does).
    let overhead = clock_overhead_ns();
    let keys: Vec<Vec<u8>> = wires
        .iter()
        .map(|w| {
            let mut k = w.clone();
            if k.len() >= 2 {
                k[0] = 0;
                k[1] = 0;
            }
            k
        })
        .collect();
    let mut get_ns = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut cache = PacketCache::new(PKTCACHE_CAP);
        let mut total = 0u64;
        for (i, key) in keys.iter().enumerate() {
            let t0 = Instant::now();
            let hit = black_box(cache.get(client, key, i as u16));
            total += (t0.elapsed().as_nanos() as u64).saturating_sub(overhead);
            if hit.is_none() {
                if let Some(resp) = response_wires.get(i) {
                    cache.put(client, key, resp);
                }
            }
        }
        get_ns.push(total as f64 / n.max(1) as f64);
    }
    get_ns.sort_by(f64::total_cmp);
    m.add("server.pktcache_get_ns", get_ns[REPS / 2], "ns");
    Ok(())
}
