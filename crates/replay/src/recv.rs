//! The querier's receive side: one thread per shard does all of it.
//!
//! The send path registers each UDP socket and TCP connection with the
//! shard's epoll instance as it opens it. The receive loop blocks in
//! `epoll_wait`, drains each ready socket without blocking (`recvmmsg` for
//! UDP, frame reassembly for TCP), matches answer ids under one lock per
//! wakeup, marks a TCP connection dead on EOF, and on every wheel tick
//! expires due attempts and puts UDP retransmits on the wire. It exits
//! when the querier's drain is over; the querier then joins it and drops
//! every socket. Reads pass `MSG_DONTWAIT` per call and never set
//! `O_NONBLOCK`, because the send path writes the same fds with blocking
//! calls. Linux only.

use std::io;
use std::net::SocketAddr;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tokio::net::tcp::OwnedReadHalf;
use tokio::net::UdpSocket;

use ldp_metrics::ShardStats;
use ldp_obs::Stage;
use ldp_telemetry::{Counter, Registry};

use crate::engine::ObsCtx;
use crate::retry::{RetryPolicy, TimeoutWheel};

/// Which transport an in-flight query went out on: what the timeout
/// path needs to retransmit (UDP, by registration token) or give up
/// (TCP; reconnection is a send-path concern).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SockRef {
    Udp(u32),
    Tcp,
}

/// Everything the receive and timeout paths need to know about one
/// outstanding query.
pub(crate) struct InFlight {
    /// Latency-slot index the answer lands in.
    pub(crate) slot: usize,
    /// Send time of the *latest* attempt (latency baseline).
    pub(crate) sent_at: Instant,
    /// When the current attempt expires; `None` when expiry is disabled.
    pub(crate) deadline: Option<Instant>,
    /// 0 on the first send; bumped per retransmit. Wheel entries carry
    /// the attempt they were scheduled for, so an answered-and-resent id
    /// can't be expired by a stale entry.
    pub(crate) attempt: u32,
    pub(crate) sock: SockRef,
    /// Encoded query for retransmission (UDP with retries enabled only —
    /// the no-retry hot path never clones wires).
    pub(crate) wire: Option<Box<[u8]>>,
}

/// Querier-wide in-flight table indexed by message id: a flat 65 536-slot
/// array instead of a `HashMap<u16, _>` — no hashing and no probing on
/// the two hottest operations (insert on send, take on answer). The
/// timeout wheel rides in the same struct so scheduling an expiry reuses
/// the lock the sender already holds.
pub(crate) struct PendingTable {
    slots: Vec<Option<InFlight>>,
    /// Outstanding queries; drives the adaptive post-send drain.
    pub(crate) in_flight: usize,
    wheel: TimeoutWheel,
    /// Set by the querier when its input ends: the receive loop exits as
    /// soon as nothing is in flight, and at this instant at the latest.
    pub(crate) drain_until: Option<Instant>,
}

impl PendingTable {
    fn new(start: Instant) -> PendingTable {
        PendingTable {
            slots: (0..1 << 16).map(|_| None).collect(),
            in_flight: 0,
            wheel: TimeoutWheel::new(start),
            drain_until: None,
        }
    }

    /// Registers an in-flight id; a still-outstanding id that wrapped
    /// around is overwritten.
    pub(crate) fn insert(&mut self, id: u16, f: InFlight) {
        let deadline = f.deadline;
        let attempt = f.attempt;
        if let Some(slot) = self.slots.get_mut(id as usize) {
            if slot.replace(f).is_none() {
                self.in_flight += 1;
            }
        }
        if let Some(d) = deadline {
            self.wheel.schedule(id, attempt, d);
        }
    }

    pub(crate) fn remove(&mut self, id: u16) -> Option<InFlight> {
        let f = self.slots.get_mut(id as usize)?.take();
        if f.is_some() {
            self.in_flight -= 1;
        }
        f
    }

    /// Whether the querier has finished sending and the drain is over.
    fn drained(&self, now: Instant) -> bool {
        self.drain_until
            .is_some_and(|d| self.in_flight == 0 || now >= d)
    }

    /// Processes every due wheel entry: validates against the live table,
    /// re-schedules not-yet-due entries, retires exhausted queries
    /// (`gave_up`), and collects UDP retransmits into `resend` for the
    /// receive loop to put on the wire after releasing the lock.
    /// `Retry`/`GaveUp` span events are recorded here, under the lock, so
    /// a `Retry` stamp always precedes its datagram (and the `retries`
    /// count, bumped once the send succeeds).
    fn sweep(
        &mut self,
        now: Instant,
        policy: &RetryPolicy,
        counters: &ShardCounters,
        due: &mut Vec<(u16, u32)>,
        resend: &mut Vec<(u32, Box<[u8]>)>,
        obs: Option<&ObsCtx>,
    ) {
        due.clear();
        self.wheel.due(now, due);
        for &(id, attempt) in due.iter() {
            let Some(f) = self.slots.get_mut(id as usize).and_then(Option::as_mut) else {
                continue;
            };
            // A stale entry (answered and the id re-used, or superseded by
            // a retransmit) or no expiry at all.
            let Some(deadline) = f.deadline.filter(|_| f.attempt == attempt) else {
                continue;
            };
            if deadline > now {
                // The bucket came around a rotation early: keep the entry
                // alive at its true deadline.
                self.wheel.schedule(id, attempt, deadline);
                continue;
            }
            counters.timeouts.inc();
            match (f.sock, &f.wire) {
                (SockRef::Udp(token), Some(wire)) if f.attempt < policy.max_udp_retries => {
                    f.attempt += 1;
                    f.sent_at = now;
                    let d = now + policy.backoff.delay(f.attempt, u64::from(id));
                    f.deadline = Some(d);
                    resend.push((token, wire.clone()));
                    if let Some(o) = obs {
                        o.record_instant(f.slot, Stage::Retry, now);
                    }
                    self.wheel.schedule(id, f.attempt, d);
                }
                _ => {
                    // Out of attempts (or TCP): the server never answered.
                    if let Some(o) = obs {
                        o.record_instant(f.slot, Stage::GaveUp, now);
                    }
                    self.remove(id);
                    counters.gave_up.inc();
                }
            }
        }
    }
}

/// One shard's event counters, resolved once from the telemetry registry
/// (or a private one): each sent query, answer, expiry, retransmit,
/// reconnect, give-up and error is counted here and nowhere else. The
/// shard's [`ShardStats`] — and through them the report's totals — are a
/// snapshot of this block, so a registry serves one replay.
pub(crate) struct ShardCounters {
    pub(crate) sent: Counter,
    /// Cumulative actual-minus-scheduled send time (Timed mode).
    pub(crate) send_lag_us: Counter,
    pub(crate) answered: Counter,
    pub(crate) timeouts: Counter,
    pub(crate) retries: Counter,
    pub(crate) reconnects: Counter,
    pub(crate) gave_up: Counter,
    pub(crate) errors: Counter,
}

impl ShardCounters {
    fn resolve(reg: &Registry, shard: usize) -> ShardCounters {
        let shard = shard.to_string();
        let labels = [("shard", shard.as_str())];
        let counter = |name: &str, help: &str| reg.counter_with(name, help, &labels);
        ShardCounters {
            sent: counter("ldp_replay_sent_total", "Queries put on the wire"),
            send_lag_us: counter(
                "ldp_replay_send_lag_us_total",
                "Cumulative actual-minus-scheduled send time in microseconds (Timed mode)",
            ),
            answered: counter(
                "ldp_replay_answered_total",
                "Responses matched to an in-flight query",
            ),
            timeouts: counter(
                "ldp_replay_timeouts_total",
                "Send attempts that hit their timeout",
            ),
            retries: counter(
                "ldp_replay_retries_total",
                "UDP retransmissions put on the wire",
            ),
            reconnects: counter(
                "ldp_replay_reconnects_total",
                "TCP connections reopened after death",
            ),
            gave_up: counter(
                "ldp_replay_gave_up_total",
                "Queries retired with no answer after exhausting attempts",
            ),
            errors: counter(
                "ldp_replay_errors_total",
                "Bind/connect/send failures degraded to error outcomes",
            ),
        }
    }

    /// Copies the counts into `stats`.
    pub(crate) fn snapshot_into(&self, stats: &mut ShardStats) {
        stats.sent = self.sent.get();
        stats.answered = self.answered.get();
        stats.timeouts = self.timeouts.get();
        stats.retries = self.retries.get();
        stats.reconnects = self.reconnects.get();
        stats.gave_up = self.gave_up.get();
        stats.errors = self.errors.get();
    }
}

/// The receive half of a TCP connection, owned by the receive loop.
pub(crate) struct TcpReader {
    read: OwnedReadHalf,
    /// Shared with the send path, which reopens the connection once set.
    dead: Arc<AtomicBool>,
    /// Bytes of a frame (or frames) not yet complete.
    partial: Vec<u8>,
}

impl TcpReader {
    pub(crate) fn new(read: OwnedReadHalf, dead: Arc<AtomicBool>) -> TcpReader {
        TcpReader {
            read,
            dead,
            partial: Vec::new(),
        }
    }

    /// Reads what is queued and appends the id of every complete
    /// length-prefixed frame to `ids`. Returns `false` on EOF or a read
    /// error: the connection is dead.
    fn read_frames(&mut self, scratch: &mut [u8], ids: &mut Vec<u16>) -> bool {
        let n = match self.read.try_read(scratch) {
            Ok(0) => return false,
            Ok(n) => n,
            Err(e) => {
                return matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                )
            }
        };
        self.partial.extend_from_slice(&scratch[..n]);
        let mut at = 0;
        while let Some(&[hi, lo]) = self.partial.get(at..at + 2) {
            let end = at + 2 + usize::from(u16::from_be_bytes([hi, lo]));
            let Some(msg) = self.partial.get(at + 2..end) else {
                break;
            };
            if let [a, b, ..] = *msg {
                ids.push(u16::from_be_bytes([a, b]));
            }
            at = end;
        }
        self.partial.drain(..at);
        true
    }
}

/// A socket handed to the receive loop, indexed by its registration
/// token.
pub(crate) enum Source {
    Udp(Arc<UdpSocket>),
    Tcp(TcpReader),
    /// A TCP connection the loop saw die; its read half is dropped.
    Closed,
}

impl Source {
    fn fd(&self) -> Option<RawFd> {
        match self {
            Source::Udp(s) => Some(s.as_raw_fd()),
            Source::Tcp(t) => Some(t.read.as_ref().as_raw_fd()),
            Source::Closed => None,
        }
    }
}

/// Sockets registered since the receive loop last looked.
struct Inbox {
    next_token: u32,
    new: Vec<Source>,
}

/// State one querier's send path and its receive loop share.
pub(crate) struct Shard {
    pub(crate) pending: Mutex<PendingTable>,
    pub(crate) latencies: Mutex<Vec<Option<u64>>>,
    pub(crate) counters: ShardCounters,
    shard: usize,
    server: SocketAddr,
    policy: RetryPolicy,
    obs: Option<ObsCtx>,
    epoll: Epoll,
    inbox: Mutex<Inbox>,
}

impl Shard {
    pub(crate) fn new(
        shard: usize,
        server: SocketAddr,
        policy: RetryPolicy,
        obs: Option<ObsCtx>,
        reg: &Registry,
    ) -> io::Result<Shard> {
        Ok(Shard {
            pending: Mutex::new(PendingTable::new(Instant::now())),
            latencies: Mutex::new(Vec::new()),
            counters: ShardCounters::resolve(reg, shard),
            shard,
            server,
            policy,
            obs,
            epoll: Epoll::new()?,
            inbox: Mutex::new(Inbox {
                next_token: 0,
                new: Vec::new(),
            }),
        })
    }

    /// Hands a freshly opened socket to the receive loop and returns its
    /// token. The inbox lock spans the `epoll_ctl`, so the loop can never
    /// see an event for a token it cannot adopt yet.
    pub(crate) fn register(&self, source: Source) -> io::Result<u32> {
        let mut inbox = self.inbox.lock();
        let token = inbox.next_token;
        if let Some(fd) = source.fd() {
            self.epoll.add(fd, token)?;
        }
        inbox.next_token += 1;
        inbox.new.push(source);
        Ok(token)
    }
}

/// Datagrams drained per `recvmmsg`. The buffers are deliberately small:
/// only the 2-byte message id is read from an answer, so the kernel
/// truncating an oversized datagram is harmless.
const RECV_BATCH: usize = 32;
const RECV_BUF: usize = 2_048;
/// Bytes read from a TCP connection per readiness event.
const TCP_READ: usize = 16 * 1024;
/// Readiness events taken per `epoll_wait`.
const EVENTS: usize = 64;

/// Starts the shard's receive thread.
pub(crate) fn spawn(shard: Arc<Shard>) -> io::Result<std::thread::JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("ldp-recv-{}", shard.shard))
        .spawn(move || RecvLoop::new(shard).run())
}

struct RecvLoop {
    shard: Arc<Shard>,
    /// Registered sockets, indexed by token.
    sources: Vec<Source>,
    events: Vec<EpollEvent>,
    bufs: Vec<Vec<u8>>,
    /// `(length, peer)` of each datagram the last `recvmmsg` read.
    received: Vec<(usize, SocketAddr)>,
    scratch: Vec<u8>,
    /// Answer ids read in this wakeup, matched under one lock.
    answers: Vec<u16>,
    due: Vec<(u16, u32)>,
    resend: Vec<(u32, Box<[u8]>)>,
}

impl RecvLoop {
    fn new(shard: Arc<Shard>) -> RecvLoop {
        RecvLoop {
            shard,
            sources: Vec::new(),
            events: vec![EpollEvent { events: 0, data: 0 }; EVENTS],
            bufs: (0..RECV_BATCH).map(|_| vec![0u8; RECV_BUF]).collect(),
            received: Vec::with_capacity(RECV_BATCH),
            scratch: vec![0u8; TCP_READ],
            answers: Vec::new(),
            due: Vec::new(),
            resend: Vec::new(),
        }
    }

    fn run(mut self) {
        let mut next_tick = Instant::now() + TimeoutWheel::TICK;
        loop {
            let timeout = next_tick.saturating_duration_since(Instant::now());
            let ready = self.shard.epoll.wait(&mut self.events, timeout);
            for i in 0..ready {
                let token = self.events[i].data;
                self.read(token as usize);
            }
            let now = Instant::now();
            if self.settle(now) {
                return;
            }
            if now >= next_tick {
                next_tick = now + TimeoutWheel::TICK;
                if self.tick(now) {
                    return;
                }
            }
        }
    }

    /// Moves newly registered sockets into the loop's table.
    fn adopt(&mut self) {
        self.sources.append(&mut self.shard.inbox.lock().new);
    }

    /// Drains one ready socket into `answers`.
    fn read(&mut self, token: usize) {
        if token >= self.sources.len() {
            self.adopt();
        }
        let Some(source) = self.sources.get_mut(token) else {
            return;
        };
        match source {
            Source::Udp(socket) => {
                // An error here is a consumed ICMP report (or nothing
                // queued); either way the socket stays registered.
                if socket
                    .try_recv_many(&mut self.bufs, &mut self.received)
                    .is_ok()
                {
                    for (buf, &(len, _)) in self.bufs.iter().zip(&self.received) {
                        if len >= 2 {
                            self.answers.push(u16::from_be_bytes([buf[0], buf[1]]));
                        }
                    }
                }
            }
            Source::Tcp(conn) => {
                if !conn.read_frames(&mut self.scratch, &mut self.answers) {
                    conn.dead.store(true, Ordering::Relaxed);
                    if let Some(fd) = source.fd() {
                        self.shard.epoll.delete(fd);
                    }
                    *source = Source::Closed;
                }
            }
            Source::Closed => {}
        }
    }

    /// Matches this wakeup's answers to in-flight queries. Returns whether
    /// the drain is over.
    fn settle(&mut self, now: Instant) -> bool {
        if self.answers.is_empty() {
            return false;
        }
        let shard = &*self.shard;
        let mut p = shard.pending.lock();
        let mut l = shard.latencies.lock();
        for id in self.answers.drain(..) {
            let Some(f) = p.remove(id) else {
                // Duplicate, late or unknown: the first answer won.
                continue;
            };
            if let Some(slot) = l.get_mut(f.slot) {
                *slot = Some(now.saturating_duration_since(f.sent_at).as_micros() as u64);
                shard.counters.answered.inc();
            }
            if let Some(o) = &shard.obs {
                o.record_instant(f.slot, Stage::Answered, now);
            }
        }
        p.drained(now)
    }

    /// One wheel tick: expiries and retransmits, then the drain check.
    fn tick(&mut self, now: Instant) -> bool {
        let shard = &*self.shard;
        let drained = {
            let mut p = shard.pending.lock();
            if shard.policy.is_enabled() {
                p.sweep(
                    now,
                    &shard.policy,
                    &shard.counters,
                    &mut self.due,
                    &mut self.resend,
                    shard.obs.as_ref(),
                );
            }
            p.drained(now)
        };
        if !self.resend.is_empty() {
            // A retransmit's socket was registered before its first send.
            self.sources.append(&mut shard.inbox.lock().new);
        }
        for (token, wire) in self.resend.drain(..) {
            let Some(Source::Udp(socket)) = self.sources.get(token as usize) else {
                continue;
            };
            if socket.try_send_to(&wire, shard.server).is_ok() {
                shard.counters.retries.inc();
            } else {
                shard.counters.errors.inc();
            }
        }
        drained
    }
}

/// `struct epoll_event`: packed on x86-64 (the kernel ABI), naturally
/// aligned elsewhere.
#[derive(Clone, Copy)]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
}

const EPOLL_CLOEXEC: i32 = 0o2_000_000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLLIN: u32 = 0x1;

/// A level-triggered epoll instance; the fd closes on drop.
struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall; a non-negative return is a fresh fd this
        // struct now owns.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is open and owned by nobody else.
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    /// Watches `fd` for input, reporting `token` with each event.
    fn add(&self, fd: RawFd, token: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: EPOLLIN,
            data: u64::from(token),
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        if unsafe { epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_ADD, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Stops watching `fd`. Failure means it was not watched: nothing to do.
    fn delete(&self, fd: RawFd) {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `add`.
        unsafe { epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_DEL, fd, &mut ev) };
    }

    /// Waits up to `timeout` (rounded up to whole milliseconds) and
    /// returns how many leading entries of `events` are filled. An error
    /// (a signal) reads as no events.
    fn wait(&self, events: &mut [EpollEvent], timeout: Duration) -> usize {
        let ms = timeout.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32;
        let max = events.len().min(i32::MAX as usize) as i32;
        // SAFETY: `events` is valid for `max` entries for the call.
        let n = unsafe { epoll_wait(self.fd.as_raw_fd(), events.as_mut_ptr(), max, ms) };
        usize::try_from(n).unwrap_or(0)
    }
}
