//! Live authoritative server on real sockets.
//!
//! The replay-fidelity experiments (§4) measure the *replay engine* against
//! real time, so they need a real server to answer: this module serves the
//! same [`AuthEngine`] over loopback UDP and TCP. It runs on the vendored
//! `tokio` stub, where every spawned task is an OS thread and every socket
//! call blocks: one thread runs the UDP loop (`recvmmsg` in, `sendmmsg`
//! out), one accepts TCP connections, and each accepted connection is
//! served by a blocking thread of its own until its client closes it.
//! Dropping the server stops the UDP and accept loops and releases both
//! ports; connection threads end with their connections.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{TcpListener, UdpSocket};

use ldp_metrics::LogHistogram;
use ldp_wire::Message;
use parking_lot::Mutex;

use crate::auth::AuthEngine;
use crate::chaos::{ChaosPolicy, ResponseFate};
use crate::pktcache::{CacheStats, PacketCache};

/// Counters shared with the experiment harness.
#[derive(Debug, Default)]
pub struct LiveStats {
    pub udp_queries: AtomicU64,
    pub tcp_queries: AtomicU64,
    pub tcp_connections: AtomicU64,
    pub malformed: AtomicU64,
    pub response_bytes: AtomicU64,
    /// Response sends the kernel refused (buffer pressure or a vanished
    /// peer); counted, never silently swallowed.
    pub send_failures: AtomicU64,
    /// UDP packet-cache hit/miss/eviction totals (the cache itself lives
    /// inside the serving loop; only the counters are shared).
    pub pktcache: Arc<CacheStats>,
    /// Server-side handle time (µs) per query: parse through response
    /// encode, excluding the outbound send. One measurement is amortized
    /// across each `recvmmsg` batch (UDP) or each read's complete frames
    /// (TCP), so the lock is taken per wakeup, not per query.
    handle_us: Mutex<LogHistogram>,
}

impl LiveStats {
    /// Snapshot of the server-side handle-time histogram.
    pub fn handle_hist(&self) -> LogHistogram {
        self.handle_us.lock().clone()
    }

    fn record_handle(&self, elapsed_us: u64, queries: u64) {
        if let Some(per_query) = elapsed_us.checked_div(queries) {
            self.handle_us.lock().record_n(per_query, queries);
        }
    }
}

/// A running live server; dropping it stops the UDP loop and the accept
/// loop and closes both sockets. Connections already accepted are served
/// until their clients close them.
pub struct LiveServer {
    pub addr: SocketAddr,
    pub stats: Arc<LiveStats>,
    /// Kept (when chaos-spawned) so telemetry can expose the fate totals.
    chaos: Option<Arc<ChaosPolicy>>,
    /// Set on drop; each loop checks it after every wakeup.
    stop: Arc<AtomicBool>,
    /// Disconnects once both loops have returned and dropped their sockets.
    stopped: mpsc::Receiver<()>,
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake each loop out of its blocking call so it sees the flag: a
        // datagram for the UDP loop, a connection for the accept loop.
        let woke_udp = std::net::UdpSocket::bind((self.addr.ip(), 0))
            .and_then(|waker| waker.send_to(&[], self.addr))
            .is_ok();
        let woke_tcp = std::net::TcpStream::connect(self.addr).is_ok();
        if woke_udp && woke_tcp {
            // Nothing is ever sent on the channel: this returns once both
            // loops have returned. Bounded, so a wedged loop cannot hang
            // the caller.
            let _ = self.stopped.recv_timeout(Duration::from_secs(1));
        }
    }
}

/// Tries when the port drawn for an ephemeral bind is taken for TCP.
const BIND_ATTEMPTS: u32 = 16;

/// Binds TCP on `udp`'s port. When `bind` asks for an ephemeral port and
/// the port UDP drew is already taken for TCP (after TCP-heavy runs, by
/// live client connections), draws a fresh UDP port and tries again.
async fn bind_tcp_beside(
    bind: SocketAddr,
    mut udp: UdpSocket,
) -> io::Result<(UdpSocket, TcpListener)> {
    let mut attempts = 1;
    loop {
        match TcpListener::bind(udp.local_addr()?).await {
            Ok(tcp) => return Ok((udp, tcp)),
            Err(e)
                if e.kind() == io::ErrorKind::AddrInUse
                    && bind.port() == 0
                    && attempts < BIND_ATTEMPTS =>
            {
                // Draw the next port before releasing this one, so the
                // kernel cannot hand the same port back.
                udp = UdpSocket::bind(bind).await?;
                attempts += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

impl LiveServer {
    /// Binds UDP and TCP on `bind` (use port 0 for an ephemeral port) and
    /// starts serving `engine`.
    pub async fn spawn(engine: Arc<AuthEngine>, bind: SocketAddr) -> io::Result<LiveServer> {
        LiveServer::spawn_inner(engine, bind, None).await
    }

    /// Like [`LiveServer::spawn`], but with a [`ChaosPolicy`] injecting
    /// faults into the serving path (chaos testing the replay engine).
    pub async fn spawn_with_chaos(
        engine: Arc<AuthEngine>,
        bind: SocketAddr,
        chaos: Arc<ChaosPolicy>,
    ) -> io::Result<LiveServer> {
        LiveServer::spawn_inner(engine, bind, Some(chaos)).await
    }

    async fn spawn_inner(
        engine: Arc<AuthEngine>,
        bind: SocketAddr,
        chaos: Option<Arc<ChaosPolicy>>,
    ) -> io::Result<LiveServer> {
        let (udp, tcp) = bind_tcp_beside(bind, UdpSocket::bind(bind).await?).await?;
        let addr = udp.local_addr()?;
        let stats = Arc::new(LiveStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let (alive, stopped) = mpsc::channel::<()>();

        // Each loop drops its `alive` sender only after it has returned
        // and closed its socket.
        let udp_loop = serve_udp(
            udp,
            engine.clone(),
            stats.clone(),
            chaos.clone(),
            stop.clone(),
        );
        let alive_udp = alive.clone();
        tokio::spawn(async move {
            udp_loop.await;
            drop(alive_udp);
        });
        let tcp_loop = serve_tcp(tcp, engine, stats.clone(), chaos.clone(), stop.clone());
        tokio::spawn(async move {
            tcp_loop.await;
            drop(alive);
        });
        Ok(LiveServer {
            addr,
            stats,
            chaos,
            stop,
            stopped,
        })
    }

    /// Registers this server's counters with a live-telemetry registry:
    /// query/malformed/byte totals, packet-cache behavior, and — when the
    /// server was chaos-spawned — the injected-fault totals. Everything is
    /// *observed* (closures over the atomics the serving loops already
    /// bump), so serving pays nothing beyond its existing counters.
    pub fn register_telemetry(&self, reg: &ldp_telemetry::Registry) {
        let stats = self.stats.clone();
        reg.observe_counter(
            "ldp_server_queries_total",
            "Queries handled",
            &[("proto", "udp")],
            {
                let s = stats.clone();
                move || s.udp_queries.load(Ordering::Relaxed)
            },
        );
        reg.observe_counter(
            "ldp_server_queries_total",
            "Queries handled",
            &[("proto", "tcp")],
            {
                let s = stats.clone();
                move || s.tcp_queries.load(Ordering::Relaxed)
            },
        );
        reg.observe_counter(
            "ldp_server_tcp_connections_total",
            "TCP connections accepted",
            &[],
            {
                let s = stats.clone();
                move || s.tcp_connections.load(Ordering::Relaxed)
            },
        );
        reg.observe_counter(
            "ldp_server_malformed_total",
            "Messages that failed to parse",
            &[],
            {
                let s = stats.clone();
                move || s.malformed.load(Ordering::Relaxed)
            },
        );
        reg.observe_counter(
            "ldp_server_response_bytes_total",
            "Response bytes produced",
            &[],
            {
                let s = stats.clone();
                move || s.response_bytes.load(Ordering::Relaxed)
            },
        );
        reg.observe_counter(
            "ldp_server_send_failures_total",
            "Response sends the kernel refused",
            &[],
            {
                let s = stats.clone();
                move || s.send_failures.load(Ordering::Relaxed)
            },
        );
        let cache_help = "UDP packet-cache events";
        for (event, read) in [
            ("hit", {
                let c = stats.pktcache.clone();
                Box::new(move || c.hits.load(Ordering::Relaxed))
                    as Box<dyn Fn() -> u64 + Send + Sync>
            }),
            ("miss", {
                let c = stats.pktcache.clone();
                Box::new(move || c.misses.load(Ordering::Relaxed))
                    as Box<dyn Fn() -> u64 + Send + Sync>
            }),
            ("eviction", {
                let c = stats.pktcache.clone();
                Box::new(move || c.evictions.load(Ordering::Relaxed))
                    as Box<dyn Fn() -> u64 + Send + Sync>
            }),
        ] {
            reg.observe_counter(
                "ldp_server_pktcache_total",
                cache_help,
                &[("event", event)],
                read,
            );
        }
        if let Some(chaos) = &self.chaos {
            for (fate, read) in [
                ("dropped", {
                    let c = chaos.clone();
                    Box::new(move || c.stats.dropped.load(Ordering::Relaxed))
                        as Box<dyn Fn() -> u64 + Send + Sync>
                }),
                ("duplicated", {
                    let c = chaos.clone();
                    Box::new(move || c.stats.duplicated.load(Ordering::Relaxed))
                        as Box<dyn Fn() -> u64 + Send + Sync>
                }),
                ("delayed", {
                    let c = chaos.clone();
                    Box::new(move || c.stats.delayed.load(Ordering::Relaxed))
                        as Box<dyn Fn() -> u64 + Send + Sync>
                }),
                ("refused_accept", {
                    let c = chaos.clone();
                    Box::new(move || c.stats.refused_accepts.load(Ordering::Relaxed))
                        as Box<dyn Fn() -> u64 + Send + Sync>
                }),
                ("reset", {
                    let c = chaos.clone();
                    Box::new(move || c.stats.resets.load(Ordering::Relaxed))
                        as Box<dyn Fn() -> u64 + Send + Sync>
                }),
            ] {
                reg.observe_counter(
                    "ldp_server_chaos_total",
                    "Injected chaos fates",
                    &[("fate", fate)],
                    read,
                );
            }
        }
    }
}

/// Datagrams per `recvmmsg` batch. Under load a replay client's sendmmsg
/// bursts queue dozens of queries between server wakeups; draining them in
/// one kernel entry (and answering with one `sendmmsg`) cuts the server's
/// syscall cost from two per query to two per batch.
const UDP_BATCH: usize = 64;

/// The responses of one `recvmmsg` batch, each encoded straight into a
/// buffer kept from earlier batches, so steady-state serving allocates
/// nothing for its answers.
struct Replies {
    /// Buffers with their destinations; only the first `len` are this
    /// batch's.
    slots: Vec<(Vec<u8>, SocketAddr)>,
    len: usize,
}

impl Replies {
    fn new() -> Replies {
        Replies {
            slots: Vec::with_capacity(UDP_BATCH),
            len: 0,
        }
    }

    fn clear(&mut self) {
        self.len = 0;
    }

    /// An empty buffer for the next response, addressed to `peer`.
    fn push(&mut self, peer: SocketAddr) -> &mut Vec<u8> {
        if self.len == self.slots.len() {
            self.slots.push((Vec::with_capacity(512), peer));
        }
        let slot = &mut self.slots[self.len];
        self.len += 1;
        slot.0.clear();
        slot.1 = peer;
        &mut slot.0
    }

    /// Takes back the last pushed response.
    fn pop(&mut self) {
        self.len = self.len.saturating_sub(1);
    }

    /// Queues a second copy of the last response.
    fn duplicate_last(&mut self) {
        let Some(last) = self.len.checked_sub(1) else {
            return;
        };
        let peer = self.slots[last].1;
        self.push(peer);
        let (done, next) = self.slots.split_at_mut(last + 1);
        next[0].0.extend_from_slice(&done[last].0);
    }

    fn last(&self) -> Option<&[u8]> {
        let last = self.len.checked_sub(1)?;
        Some(&self.slots[last].0)
    }

    fn iter(&self) -> impl Iterator<Item = (&[u8], SocketAddr)> {
        self.slots[..self.len]
            .iter()
            .map(|(bytes, peer)| (bytes.as_slice(), *peer))
    }
}

/// Applies the chaos policy's fate to each UDP response (or delivers
/// unconditionally when no policy is installed).
struct ReplyRouter {
    socket: Arc<UdpSocket>,
    stats: Arc<LiveStats>,
    chaos: Option<Arc<ChaosPolicy>>,
    started: Instant,
}

impl ReplyRouter {
    /// Decides the fate of the response just pushed onto `replies`: kept,
    /// taken back, doubled, or taken back and sent out of band later.
    /// `query_wire` must be the id-zeroed query so retransmits of the same
    /// query share a sighting sequence.
    fn route(&self, replies: &mut Replies, query_wire: &[u8], peer: SocketAddr) {
        let fate = match &self.chaos {
            Some(c) => c.response_fate(query_wire, self.started.elapsed()),
            None => ResponseFate::Deliver,
        };
        match fate {
            ResponseFate::Deliver => {}
            ResponseFate::Drop => replies.pop(),
            ResponseFate::Duplicate => replies.duplicate_last(),
            ResponseFate::Delay(by) => {
                let bytes = replies.last().map(<[u8]>::to_vec).unwrap_or_default();
                replies.pop();
                let socket = self.socket.clone();
                let stats = self.stats.clone();
                tokio::spawn(async move {
                    tokio::time::sleep(by).await;
                    if socket.send_to(&bytes, peer).await.is_err() {
                        stats.send_failures.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        }
    }
}

async fn serve_udp(
    socket: UdpSocket,
    engine: Arc<AuthEngine>,
    stats: Arc<LiveStats>,
    chaos: Option<Arc<ChaosPolicy>>,
    stop: Arc<AtomicBool>,
) {
    let socket = Arc::new(socket);
    let router = ReplyRouter {
        socket: socket.clone(),
        stats: stats.clone(),
        chaos,
        started: Instant::now(),
    };
    let mut bufs: Vec<Vec<u8>> = (0..UDP_BATCH).map(|_| vec![0u8; 65_535]).collect();
    let mut received: Vec<(usize, SocketAddr)> = Vec::with_capacity(UDP_BATCH);
    let mut replies = Replies::new();
    // Answers are deterministic over static zones, so identical query
    // wires (ignoring the id) short-circuit the parse → lookup → encode
    // path entirely; see [`crate::pktcache`].
    let mut cache = PacketCache::with_stats(8_192, stats.pktcache.clone());
    loop {
        if socket.recv_many(&mut bufs, &mut received).await.is_err() {
            continue;
        }
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let handle_start = Instant::now();
        let queries_before = stats.udp_queries.load(Ordering::Relaxed);
        replies.clear();
        for (buf, &(len, peer)) in bufs.iter_mut().zip(&received) {
            if len < 2 {
                stats.malformed.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // Zero the id in place: the cache key must match across
            // retransmits, and parsing doesn't need it (the response id is
            // patched from `id` either way).
            let id = u16::from_be_bytes([buf[0], buf[1]]);
            buf[0] = 0;
            buf[1] = 0;
            let query_wire = &buf[..len];
            let out = replies.push(peer);
            if !cache.get_into(peer.ip(), query_wire, id, out) {
                let Ok(query) = Message::from_bytes(query_wire) else {
                    stats.malformed.fetch_add(1, Ordering::Relaxed);
                    replies.pop();
                    continue;
                };
                stats.udp_queries.fetch_add(1, Ordering::Relaxed);
                if engine.respond_into(peer.ip(), &query, false, out).is_err() {
                    replies.pop();
                    continue;
                }
                cache.put(peer.ip(), query_wire, out);
                out[0..2].copy_from_slice(&id.to_be_bytes());
            } else {
                stats.udp_queries.fetch_add(1, Ordering::Relaxed);
            }
            stats
                .response_bytes
                .fetch_add(out.len() as u64, Ordering::Relaxed);
            router.route(&mut replies, query_wire, peer);
        }
        let handled = stats.udp_queries.load(Ordering::Relaxed) - queries_before;
        stats.record_handle(handle_start.elapsed().as_micros() as u64, handled);
        let sent = socket.send_many_to_each(replies.iter()).await.unwrap_or(0);
        for (bytes, peer) in replies.iter().skip(sent) {
            if socket.send_to(bytes, peer).await.is_err() {
                stats.send_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

async fn serve_tcp(
    listener: TcpListener,
    engine: Arc<AuthEngine>,
    stats: Arc<LiveStats>,
    chaos: Option<Arc<ChaosPolicy>>,
    stop: Arc<AtomicBool>,
) {
    loop {
        let Ok((stream, peer)) = listener.accept().await else {
            continue;
        };
        if stop.load(Ordering::Relaxed) {
            return;
        }
        // Injected accept refusal: close the connection before it counts
        // as served; the client sees an immediate EOF/reset.
        if chaos.as_ref().is_some_and(|c| c.refuse_accept()) {
            drop(stream);
            continue;
        }
        stats.tcp_connections.fetch_add(1, Ordering::Relaxed);
        let engine = engine.clone();
        let stats = stats.clone();
        let chaos = chaos.clone();
        tokio::spawn(async move {
            let _ = serve_tcp_conn(stream, peer, engine, stats, chaos).await;
        });
    }
}

/// Initial size of a connection's receive buffer; it grows only for a
/// frame that does not fit.
const TCP_READ: usize = 2_048;

/// Serves one connection: each wakeup reads whatever is queued with one
/// `read`, answers every complete frame in it, encoding each answer after
/// a 2-byte length placeholder that is then patched, and sends all the
/// answers with one `write_all`. A partial frame waits for the next read.
async fn serve_tcp_conn(
    mut stream: tokio::net::TcpStream,
    peer: SocketAddr,
    engine: Arc<AuthEngine>,
    stats: Arc<LiveStats>,
    chaos: Option<Arc<ChaosPolicy>>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut served = 0u64;
    // Received bytes not yet answered are `inbuf[start..end]`.
    let mut inbuf = vec![0u8; TCP_READ];
    let (mut start, mut end) = (0usize, 0usize);
    let mut out: Vec<u8> = Vec::new();
    loop {
        // Keep a partial frame at the front, with room after it.
        inbuf.copy_within(start..end, 0);
        end -= start;
        start = 0;
        if end == inbuf.len() {
            inbuf.resize(inbuf.len() * 2, 0);
        }
        let n = match stream.read(&mut inbuf[end..]).await {
            Ok(0) => return Ok(()), // peer closed
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Ok(()),
        };
        end += n;
        let handle_start = Instant::now();
        let mut answered = 0u64;
        let mut reset = false;
        out.clear();
        // RFC 1035 §4.2.2 framing: 2-byte length, then the message.
        while let Some(frame) = inbuf.get(start..end).and_then(complete_frame) {
            let query = Message::from_bytes(frame);
            start += 2 + frame.len();
            let Ok(query) = query else {
                stats.malformed.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            stats.tcp_queries.fetch_add(1, Ordering::Relaxed);
            let at = out.len();
            out.extend_from_slice(&[0, 0]);
            if engine
                .respond_into(peer.ip(), &query, true, &mut out)
                .is_err()
            {
                out.truncate(at);
                continue;
            }
            // `encode_into` refuses messages over 65,535 octets.
            let len = u16::try_from(out.len() - at - 2).unwrap_or(u16::MAX);
            out[at..at + 2].copy_from_slice(&len.to_be_bytes());
            stats
                .response_bytes
                .fetch_add(u64::from(len), Ordering::Relaxed);
            answered += 1;
            served += 1;
            // Injected mid-conversation reset: close after serving the
            // configured number of queries on this connection.
            if chaos.as_ref().is_some_and(|c| c.should_reset(served)) {
                reset = true;
                break;
            }
        }
        stats.record_handle(handle_start.elapsed().as_micros() as u64, answered);
        if !out.is_empty() {
            stream.write_all(&out).await?;
        }
        if reset {
            return Ok(());
        }
    }
}

/// The message of the first frame in `buf`, if all of it has arrived.
fn complete_frame(buf: &[u8]) -> Option<&[u8]> {
    let len = usize::from(u16::from_be_bytes([*buf.first()?, *buf.get(1)?]));
    buf.get(2..2 + len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_wire::{Name, RData, Record, RrType};
    use ldp_zone::{Zone, ZoneSet};

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn engine() -> Arc<AuthEngine> {
        let mut z = Zone::with_fake_soa(n("example.com"));
        z.add(Record::new(
            n("www.example.com"),
            300,
            RData::A("192.0.2.80".parse().unwrap()),
        ))
        .unwrap();
        z.add(Record::new(
            n("*.wild.example.com"),
            60,
            RData::A("192.0.2.99".parse().unwrap()),
        ))
        .unwrap();
        let mut set = ZoneSet::new();
        set.insert(z);
        Arc::new(AuthEngine::with_zones(Arc::new(set)))
    }

    #[tokio::test]
    async fn udp_roundtrip() {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").await.unwrap();
        let q = Message::query(42, n("www.example.com"), RrType::A);
        client
            .send_to(&q.to_bytes().unwrap(), server.addr)
            .await
            .unwrap();
        let mut buf = vec![0u8; 4096];
        let (len, _) = client.recv_from(&mut buf).await.unwrap();
        let resp = Message::from_bytes(&buf[..len]).unwrap();
        assert_eq!(resp.header.id, 42);
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(server.stats.udp_queries.load(Ordering::Relaxed), 1);
        let hist = server.stats.handle_hist();
        assert_eq!(hist.count(), 1, "one handle-time sample per UDP query");
    }

    #[tokio::test]
    async fn tcp_roundtrip_with_connection_reuse() {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let mut stream = tokio::net::TcpStream::connect(server.addr).await.unwrap();
        for i in 0..3u16 {
            let q = Message::query(i, n(&format!("q{i}.wild.example.com")), RrType::A);
            let framed = ldp_wire::framing::frame_message(&q.to_bytes().unwrap()).unwrap();
            stream.write_all(&framed).await.unwrap();
            let mut lenbuf = [0u8; 2];
            stream.read_exact(&mut lenbuf).await.unwrap();
            let mut msg = vec![0u8; u16::from_be_bytes(lenbuf) as usize];
            stream.read_exact(&mut msg).await.unwrap();
            let resp = Message::from_bytes(&msg).unwrap();
            assert_eq!(resp.header.id, i);
            assert_eq!(resp.answers.len(), 1, "wildcard answers each name");
        }
        assert_eq!(server.stats.tcp_queries.load(Ordering::Relaxed), 3);
        assert_eq!(
            server.stats.tcp_connections.load(Ordering::Relaxed),
            1,
            "one connection reused for all three queries"
        );
        assert_eq!(
            server.stats.handle_hist().count(),
            3,
            "one handle-time sample per TCP query"
        );
    }

    #[tokio::test]
    async fn tcp_pipelined_frames_split_anywhere_are_answered_in_order() {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let mut stream = tokio::net::TcpStream::connect(server.addr).await.unwrap();
        stream.set_nodelay(true).unwrap();
        let mut wire = Vec::new();
        let mut starts = Vec::new();
        for i in 0..5u16 {
            starts.push(wire.len());
            let q = Message::query(i, n(&format!("p{i}.wild.example.com")), RrType::A);
            wire.extend(ldp_wire::framing::frame_message(&q.to_bytes().unwrap()).unwrap());
        }
        // One cut between the two length octets of frame 1, one inside
        // the body of frame 3; each piece goes out in its own segment.
        let cuts = [0, starts[1] + 1, starts[3] + 2 + 5, wire.len()];
        for piece in cuts.windows(2) {
            stream.write_all(&wire[piece[0]..piece[1]]).await.unwrap();
            tokio::time::sleep(Duration::from_millis(30)).await;
        }
        for i in 0..5u16 {
            let mut lenbuf = [0u8; 2];
            stream.read_exact(&mut lenbuf).await.unwrap();
            let mut msg = vec![0u8; u16::from_be_bytes(lenbuf) as usize];
            stream.read_exact(&mut msg).await.unwrap();
            let resp = Message::from_bytes(&msg).unwrap();
            assert_eq!(resp.header.id, i, "answers come back in query order");
            assert_eq!(
                resp.questions[0].qname,
                n(&format!("p{i}.wild.example.com"))
            );
            assert_eq!(resp.answers.len(), 1);
        }
        assert_eq!(server.stats.tcp_queries.load(Ordering::Relaxed), 5);
        assert_eq!(server.stats.handle_hist().count(), 5);
    }

    #[tokio::test]
    async fn pktcache_counters_surface_through_stats_and_telemetry() {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let reg = ldp_telemetry::Registry::new();
        server.register_telemetry(&reg);
        let client = UdpSocket::bind("127.0.0.1:0").await.unwrap();
        let mut buf = vec![0u8; 4096];
        // The same question under three ids: one miss fills the cache,
        // the retransmits hit.
        for id in 0..3u16 {
            let q = Message::query(id, n("www.example.com"), RrType::A);
            client
                .send_to(&q.to_bytes().unwrap(), server.addr)
                .await
                .unwrap();
            let (len, _) = client.recv_from(&mut buf).await.unwrap();
            assert_eq!(Message::from_bytes(&buf[..len]).unwrap().header.id, id);
        }
        assert_eq!(server.stats.pktcache.misses.load(Ordering::Relaxed), 1);
        assert_eq!(server.stats.pktcache.hits.load(Ordering::Relaxed), 2);
        let samples = reg.snapshot();
        let value = |event: &str| {
            samples
                .iter()
                .find(|s| {
                    s.name == "ldp_server_pktcache_total"
                        && s.labels.iter().any(|(_, v)| v == event)
                })
                .map(|s| s.value)
        };
        assert_eq!(value("hit"), Some(2));
        assert_eq!(value("miss"), Some(1));
        assert_eq!(value("eviction"), Some(0));
        // Query totals ride along on the same registry.
        assert!(samples
            .iter()
            .any(|s| s.name == "ldp_server_queries_total" && s.value == 3));
    }

    #[tokio::test]
    async fn ephemeral_bind_retries_a_port_taken_for_tcp() {
        let bind: SocketAddr = "127.0.0.1:0".parse().unwrap();
        // Force the collision: a UDP port whose TCP twin is taken.
        let udp = UdpSocket::bind(bind).await.unwrap();
        let taken = udp.local_addr().unwrap();
        let _blocker = TcpListener::bind(taken).await.unwrap();
        let (udp, tcp) = bind_tcp_beside(bind, udp).await.unwrap();
        let addr = udp.local_addr().unwrap();
        assert_ne!(addr, taken, "the taken port must be given up");
        assert_eq!(tcp.local_addr().unwrap(), addr, "UDP and TCP share a port");
        // A fixed port is the caller's choice: never silently moved.
        let fixed = UdpSocket::bind(taken.ip().to_string() + ":0")
            .await
            .unwrap();
        let port = fixed.local_addr().unwrap().port();
        let _fixed_blocker = TcpListener::bind((taken.ip(), port)).await.unwrap();
        let err = bind_tcp_beside((taken.ip(), port).into(), fixed)
            .await
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
    }

    #[tokio::test]
    async fn dropping_the_server_releases_both_ports() {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let addr = server.addr;
        // Both loops serve first, so each is past start-up when stopped.
        let client = UdpSocket::bind("127.0.0.1:0").await.unwrap();
        let q = Message::query(7, n("www.example.com"), RrType::A);
        client.send_to(&q.to_bytes().unwrap(), addr).await.unwrap();
        let mut buf = vec![0u8; 4096];
        client.recv_from(&mut buf).await.unwrap();
        drop(tokio::net::TcpStream::connect(addr).await.unwrap());
        drop(server);
        UdpSocket::bind(addr)
            .await
            .expect("UDP port still bound after drop");
        TcpListener::bind(addr)
            .await
            .expect("TCP port still bound after drop");
    }

    #[tokio::test]
    async fn malformed_udp_ignored() {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").await.unwrap();
        client.send_to(&[1, 2, 3], server.addr).await.unwrap();
        // Then a valid query still gets served.
        let q = Message::query(1, n("www.example.com"), RrType::A);
        client
            .send_to(&q.to_bytes().unwrap(), server.addr)
            .await
            .unwrap();
        let mut buf = vec![0u8; 4096];
        let (len, _) = client.recv_from(&mut buf).await.unwrap();
        assert!(Message::from_bytes(&buf[..len]).is_ok());
        assert_eq!(server.stats.malformed.load(Ordering::Relaxed), 1);
    }
}
