//! Server set-up and the correctness preflight.

use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpStream, UdpSocket};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ldp_server::auth::AuthEngine;
use ldp_server::live::LiveServer;
use ldp_trace::TraceRecord;

/// Spawn attempts before set-up gives up.
const SPAWN_ATTEMPTS: u32 = 10;

/// Parses the zone directory and builds the engine: the part of set-up
/// that is repeated to take a median.
pub fn load_engine(zone_dir: &Path) -> Result<(Arc<AuthEngine>, Duration), String> {
    let t0 = Instant::now();
    let zones = ldplayer::cli::load_zone_dir(zone_dir)?;
    let engine = Arc::new(AuthEngine::with_zones(Arc::new(zones)));
    Ok((engine, t0.elapsed()))
}

/// Spawns the server on a loopback ephemeral port.
///
/// `LiveServer::spawn` binds TCP on the port its UDP socket drew, which
/// can already be taken for TCP (seen after TCP-heavy runs). Each
/// `AddrInUse` is retried on a fresh ephemeral port and counted, so the
/// flake stays visible as `setup.bind_retries`.
pub fn spawn_server(
    rt: &tokio::runtime::Runtime,
    engine: &Arc<AuthEngine>,
) -> Result<(LiveServer, u64, Duration), String> {
    let t0 = Instant::now();
    let bind: SocketAddr = (Ipv4Addr::LOCALHOST, 0).into();
    let mut retries = 0;
    loop {
        match rt.block_on(LiveServer::spawn(engine.clone(), bind)) {
            Ok(server) => return Ok((server, retries, t0.elapsed())),
            Err(e)
                if e.kind() == std::io::ErrorKind::AddrInUse
                    && retries + 1 < u64::from(SPAWN_ATTEMPTS) =>
            {
                retries += 1;
            }
            Err(e) => return Err(format!("server spawn failed after {retries} retries: {e}")),
        }
    }
}

/// Server-side query count (UDP + TCP).
pub fn handled(server: &LiveServer) -> u64 {
    server.stats.udp_queries.load(Ordering::Relaxed)
        + server.stats.tcp_queries.load(Ordering::Relaxed)
}

/// Compares a live answer with the engine's own encoding of the response:
/// equal except for the id, which must echo the query's.
fn check_answer(expected: &[u8], got: &[u8], id: u16, what: &str) -> Result<(), String> {
    if got.len() < 2 || u16::from_be_bytes([got[0], got[1]]) != id {
        return Err(format!("{what}: answer id does not echo query id {id}"));
    }
    if expected.len() != got.len() || expected[2..] != got[2..] {
        return Err(format!(
            "{what}: live answer ({} bytes) differs from AuthEngine::respond ({} bytes)",
            got.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// Preflight on a sample of the workload's queries: over UDP each query is
/// sent twice (the first answer comes from the miss path, the second from
/// the pktcache), over TCP once. Every answer must equal
/// `AuthEngine::respond(..).to_bytes()` apart from the id, and the server's
/// pktcache counters must show both paths were taken. Returns the number
/// of answers checked.
pub fn preflight(
    server: &LiveServer,
    engine: &AuthEngine,
    sample: &[TraceRecord],
) -> Result<u64, String> {
    let io = |e: std::io::Error| format!("preflight: {e}");
    let client = IpAddr::V4(Ipv4Addr::LOCALHOST);
    let udp = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).map_err(io)?;
    udp.set_read_timeout(Some(Duration::from_secs(2)))
        .map_err(io)?;
    let mut tcp = TcpStream::connect(server.addr).map_err(io)?;
    tcp.set_read_timeout(Some(Duration::from_secs(2)))
        .map_err(io)?;
    tcp.set_nodelay(true).map_err(io)?;
    let hits0 = server.stats.pktcache.hits.load(Ordering::Relaxed);
    let misses0 = server.stats.pktcache.misses.load(Ordering::Relaxed);
    let mut buf = vec![0u8; 65_535];
    let mut checked = 0u64;
    for (k, rec) in sample.iter().enumerate() {
        let mut query = rec.message.clone();
        let id = 0x4000 | k as u16;
        query.header.id = id;
        let wire = query
            .to_bytes()
            .map_err(|e| format!("preflight encode: {e}"))?;
        let expect = |over_stream| {
            engine
                .respond(client, &query, over_stream)
                .to_bytes()
                .map_err(|e| format!("preflight respond encode: {e}"))
        };
        let udp_expected = expect(false)?;
        for path in ["udp miss path", "udp pktcache hit path"] {
            udp.send_to(&wire, server.addr).map_err(io)?;
            let n = udp.recv(&mut buf).map_err(io)?;
            check_answer(&udp_expected, &buf[..n], id, path)?;
            checked += 1;
        }
        let framed =
            ldp_wire::framing::frame_message(&wire).map_err(|e| format!("preflight frame: {e}"))?;
        tcp.write_all(&framed).map_err(io)?;
        let mut len = [0u8; 2];
        tcp.read_exact(&mut len).map_err(io)?;
        let n = usize::from(u16::from_be_bytes(len));
        tcp.read_exact(&mut buf[..n]).map_err(io)?;
        check_answer(&expect(true)?, &buf[..n], id, "tcp path")?;
        checked += 1;
    }
    let hits = server.stats.pktcache.hits.load(Ordering::Relaxed) - hits0;
    let misses = server.stats.pktcache.misses.load(Ordering::Relaxed) - misses0;
    if hits == 0 || misses == 0 {
        return Err(format!(
            "preflight: pktcache saw {hits} hits and {misses} misses; both paths must run"
        ));
    }
    Ok(checked)
}
