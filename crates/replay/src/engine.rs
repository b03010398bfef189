//! The live replay engine (tokio, real sockets) — the implementation
//! behind the §4 fidelity and throughput experiments.
//!
//! Architecture (Figure 4 of the paper), rebuilt as a sharded batched
//! pipeline: the Controller's **Reader** decodes trace records and its
//! **Postman** routes them with same-source affinity through a
//! [`Batcher`], moving whole batches over bounded channels to one
//! **Querier** per shard. The paper runs these as processes across hosts
//! connected by TCP; here they are threads connected by channels — the
//! dataflow (sticky distribution, time-sync broadcast, per-querier
//! scheduling) is the same, and the throughput experiment (§4.3) measures
//! the same per-core replay limits.
//!
//! Batching is the hot-path lever: a channel hand-off costs a lock +
//! wakeup, so moving `batch_size` records per hand-off amortizes that
//! cost to near zero, and each querier drains a whole batch per wakeup —
//! reserving outcome slots once per batch and, in [`ReplayMode::Fast`],
//! coalescing consecutive same-source sends onto one socket lookup and
//! one pending-map lock (TCP runs additionally collapse into a single
//! write). [`ReplayMode::Timed`] still paces *every record* through
//! [`ReplayClock`]'s hybrid coarse-sleep + spin, so fidelity is
//! unchanged while input-side overhead shrinks.
//!
//! Queriers keep one socket per original source (capped, LRU-less:
//! sources beyond the cap share by hash) so same-source queries reuse a
//! socket, and one TCP connection per source with reuse (§2.6). Each
//! querier is two threads whatever the trace: its task sends, and its
//! receive loop (`recv.rs`) matches every answer on every socket
//! and connection through one epoll, runs the timeout wheel, and ends
//! with the drain, after which every socket is closed. Each shard
//! exports [`ShardStats`] — sent/answered/late counts, queue depths,
//! postman stalls — so the Figure 9 experiments can see *where* the
//! pipeline saturates.

use std::collections::HashMap;
use std::net::{IpAddr, SocketAddr};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tokio::io::AsyncWriteExt;
use tokio::net::UdpSocket;
use tokio::sync::mpsc;
use tokio::task::JoinHandle;

use ldp_metrics::ShardStats;
use ldp_obs::{ReplaySpans, Stage};
use ldp_trace::{Protocol, TraceRecord};

use crate::plan::{Batcher, ReplayPlan};
use crate::recv::{InFlight, Shard, SockRef, Source, TcpReader};
use crate::retry::RetryPolicy;
use crate::timing::ReplayClock;

/// How the engine paces queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayMode {
    /// Faithful trace timing, optionally scaled by `speed`.
    ///
    /// `speed` multiplies inter-query delays, so **smaller is faster**:
    /// `0.5` replays in half the wall time (twice as fast), `2.0` in
    /// double (half speed). See [`ReplayClock::with_speed`] for the
    /// convention and DESIGN.md's replay section for why it is delay-
    /// scaling rather than a speedup factor.
    Timed { speed: f64 },
    /// As fast as possible (load testing, §4.3).
    Fast,
}

/// Why a trace record degraded to an unsent (or unanswerable) outcome
/// instead of aborting the replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayError {
    /// The querier could not bind a UDP socket for the record's source.
    Bind,
    /// TCP connect (including every reconnect attempt) failed.
    Connect,
    /// The kernel refused the send.
    Send,
}

/// Per-query result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Query time relative to trace start (µs, unscaled trace timeline).
    pub trace_offset_us: u64,
    /// Scheduled send time relative to the replay epoch (µs) — the trace
    /// offset *after* speed scaling, i.e. the deadline the engine aimed
    /// for. Equal to `trace_offset_us` at speed 1.0 and in `Fast` mode.
    pub target_offset_us: u64,
    /// Actual send time relative to the replay epoch (µs).
    pub sent_offset_us: u64,
    /// Response latency, if an answer arrived (µs).
    pub latency_us: Option<u64>,
    /// Original source address.
    pub src: IpAddr,
    pub protocol: Protocol,
    /// Replay-side failure, if the record never (successfully) went on
    /// the wire. Errored outcomes are excluded from `sent`.
    pub error: Option<ReplayError>,
}

/// Full replay result.
#[derive(Debug)]
pub struct ReplayReport {
    pub outcomes: Vec<ReplayOutcome>,
    /// Wall-clock duration of the sending phase (µs).
    pub send_duration_us: u64,
    pub sent: u64,
    pub answered: u64,
    /// Attempt expiries (every attempt counts, including the last).
    pub timeouts: u64,
    /// UDP retransmits put on the wire (never counted in `sent`).
    pub retries: u64,
    /// TCP connections reopened after a previous one died.
    pub reconnects: u64,
    /// Queries abandoned after exhausting every attempt.
    pub gave_up: u64,
    /// Records degraded to [`ReplayError`] outcomes.
    pub errors: u64,
    /// Per-shard pipeline saturation counters, one entry per querier.
    pub shards: Vec<ShardStats>,
}

impl ReplayReport {
    /// Timing errors in milliseconds (sent − scheduled target), Figure
    /// 6's metric. The target is the *scaled* trace offset, so errors are
    /// meaningful at any `Timed` speed — comparing against the raw trace
    /// offset would misreport every `speed != 1.0` run by the scaling
    /// factor.
    pub fn timing_errors_ms(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .map(|o| (o.sent_offset_us as f64 - o.target_offset_us as f64) / 1000.0)
            .collect()
    }

    /// Replayed inter-arrival times in seconds (Figure 7's metric).
    pub fn replayed_interarrivals_s(&self) -> Vec<f64> {
        let mut sent: Vec<u64> = self.outcomes.iter().map(|o| o.sent_offset_us).collect();
        sent.sort_unstable();
        sent.windows(2)
            .map(|w| (w[1] - w[0]) as f64 / 1e6)
            .collect()
    }

    /// Achieved send rate (q/s) over the sending phase (Figure 9's metric).
    pub fn achieved_qps(&self) -> f64 {
        if self.send_duration_us == 0 {
            return 0.0;
        }
        self.sent as f64 / (self.send_duration_us as f64 / 1e6)
    }

    /// Response latencies in milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter_map(|o| o.latency_us)
            .map(|us| us as f64 / 1000.0)
            .collect()
    }

    /// Answered-query latencies folded into a log-bucketed histogram
    /// (µs ticks) — the fixed-memory form run manifests carry.
    pub fn latency_hist(&self) -> ldp_metrics::LogHistogram {
        let mut h = ldp_metrics::LogHistogram::new();
        for us in self.outcomes.iter().filter_map(|o| o.latency_us) {
            h.record(us);
        }
        h
    }
}

/// JSON form of a report: the aggregate counters and per-shard stats,
/// *without* the per-query outcome vector (potentially millions of
/// entries — figure binaries derive what they need and drop it). Field
/// names are schema: golden tests pin them, `results/BENCH_*.json`
/// comparisons depend on them.
impl serde::Serialize for ReplayReport {
    fn to_json_value(&self) -> serde::Value {
        serde_json::json!({
            "send_duration_us": self.send_duration_us,
            "sent": self.sent,
            "answered": self.answered,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "reconnects": self.reconnects,
            "gave_up": self.gave_up,
            "errors": self.errors,
            "shards": self.shards,
        })
    }
}

/// What each querier task resolves to: its outcomes plus shard counters.
/// Record-level faults degrade to per-record [`ReplayError`] outcomes;
/// only a querier that cannot start its receive loop (no epoll instance
/// or no thread) fails the replay.
type QuerierResult = std::io::Result<(Vec<ReplayOutcome>, ShardStats)>;

/// Live replay configuration.
#[derive(Debug, Clone)]
pub struct LiveReplay {
    /// Target server (the system under test).
    pub server: SocketAddr,
    pub mode: ReplayMode,
    /// Distribution-tree shape; total queriers = product.
    pub distributors: usize,
    pub queriers_per_distributor: usize,
    /// Records per pipeline batch: the unit the Postman hands a querier.
    /// Larger batches amortize channel hand-offs further; `Timed` replays
    /// flush partial batches on a trace-time horizon regardless, so
    /// pacing never waits on batch fill.
    pub batch_size: usize,
    /// Hard cap on waiting for in-flight answers after the last send.
    /// The drain is adaptive: a querier exits as soon as its in-flight
    /// table empties (answered, retried out, or expired), so this bound
    /// only bites when expiry is disabled or answers are still pending.
    pub drain: Duration,
    /// Timeout/retransmit/reconnect policy (see [`RetryPolicy`]).
    pub retry: RetryPolicy,
    /// Optional span sink ([`ReplaySpans`]): when set, every pipeline
    /// stage a (sampled) query passes through — read, batched, scheduled,
    /// sent, retry, answered, gave-up — is recorded with a microsecond
    /// timestamp on the shared replay epoch, so outcomes decompose into
    /// batch-wait, queue-wait, send-lag, and wire+server time. `None`
    /// (the default) costs one branch per stage. Typically populated via
    /// [`ReplaySpans::from_env`] (`LDP_OBS_SAMPLE`).
    pub obs: Option<Arc<ReplaySpans>>,
    /// Optional live-telemetry registry, one per replay. Each shard counts
    /// its events (sent, answered, send lag, every fault) in one block of
    /// counters resolved from this registry at startup — one relaxed
    /// `fetch_add` per event — and registers queue-depth and in-flight
    /// gauges; the final report is a snapshot of the counters. `None`
    /// (the default) puts them in a private registry.
    pub telemetry: Option<Arc<ldp_telemetry::Registry>>,
}

impl LiveReplay {
    /// Sensible defaults for loopback experiments: the paper's prototype
    /// shape (1 distributor × 6 queriers).
    pub fn new(server: SocketAddr) -> LiveReplay {
        LiveReplay {
            server,
            mode: ReplayMode::Timed { speed: 1.0 },
            distributors: 1,
            queriers_per_distributor: 6,
            batch_size: 256,
            drain: Duration::from_millis(300),
            retry: RetryPolicy::default(),
            obs: None,
            telemetry: None,
        }
    }

    /// Runs the replay to completion. The records `Vec` is the Reader's
    /// fully preloaded window; routing and batching are identical to
    /// [`LiveReplay::run_stream`].
    pub async fn run(&self, records: Vec<TraceRecord>) -> std::io::Result<ReplayReport> {
        self.run_stream(records.into_iter().map(Ok)).await
    }

    /// Streaming variant: replays records pulled incrementally from a
    /// trace reader, never holding the whole trace in memory. This is the
    /// paper's §3 Reader: a bounded read-ahead window (`QUEUE_BATCHES`
    /// batches of `batch_size` records per querier) keeps input
    /// processing from falling behind real time while capping memory for
    /// multi-gigabyte traces. The Reader+Postman run on a blocking
    /// thread; routing stays sticky per source, and spines recycle back
    /// from queriers so steady-state batching is allocation-free.
    pub async fn run_stream<I>(&self, records: I) -> std::io::Result<ReplayReport>
    where
        I: Iterator<Item = Result<TraceRecord, ldp_trace::TraceError>> + Send + 'static,
    {
        let plan = ReplayPlan::new(self.distributors, self.queriers_per_distributor);
        let n_queriers = plan.querier_count();

        // The reader must see the first record to latch the trace epoch
        // before any querier starts; peel it off eagerly.
        let mut records = records;
        let first = match records.next() {
            None => return self.collect(Vec::new(), None).await,
            Some(Err(e)) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    e.to_string(),
                ))
            }
            Some(Ok(rec)) => rec,
        };
        let trace_epoch_us = first.time_us;
        // The shared epoch (the time-sync broadcast value). Taken just
        // before spawning so offsets are measured on one clock; the few
        // microseconds of spawn skew show up as (tiny) positive timing
        // error, which the fidelity experiments' warmup window absorbs.
        let epoch = Instant::now();
        let registry = self
            .telemetry
            .clone()
            .unwrap_or_else(|| Arc::new(ldp_telemetry::Registry::new()));

        // Spine recycling: queriers return drained batch Vecs here; the
        // postman feeds them back into the batcher's spare pool.
        let (recycle_tx, mut recycle_rx) =
            mpsc::channel::<Vec<TraceRecord>>(n_queriers * QUEUE_BATCHES);

        let mut txs = Vec::with_capacity(n_queriers);
        let mut depths: Vec<Arc<AtomicUsize>> = Vec::with_capacity(n_queriers);
        let mut handles = Vec::with_capacity(n_queriers);
        for shard in 0..n_queriers {
            let (tx, rx) = mpsc::channel::<Vec<TraceRecord>>(QUEUE_BATCHES);
            let depth = Arc::new(AtomicUsize::new(0));
            let d = depth.clone();
            registry.observe_gauge(
                "ldp_replay_queue_depth",
                "Batches queued at the querier (Postman backlog)",
                &[("shard", &shard.to_string())],
                move || d.load(Ordering::Relaxed) as u64,
            );
            txs.push(tx);
            depths.push(depth.clone());
            handles.push(tokio::spawn(
                self.querier(shard, trace_epoch_us, epoch, registry.clone())
                    .run(rx, depth, recycle_tx.clone()),
            ));
        }
        drop(recycle_tx);

        let batch_size = self.batch_size.max(1);
        let horizon_us = match self.mode {
            // Never hold a timed record hostage to a slow-filling batch:
            // flush anything older than the horizon in trace time.
            ReplayMode::Timed { .. } => BATCH_HORIZON_US,
            ReplayMode::Fast => u64::MAX,
        };

        // Reader + Postman on a blocking thread: decode, route sticky,
        // batch, push with backpressure (a full querier queue parks the
        // reader — the pre-load bound). Returns the postman-side shard
        // counters: stalls and queue-depth observations.
        let spans = self.obs.clone();
        let postman = tokio::task::spawn_blocking(move || {
            let mut pstats: Vec<ShardStats> = (0..n_queriers).map(ShardStats::new).collect();
            let mut batcher: Batcher<TraceRecord> = Batcher::new(plan, batch_size, horizon_us);
            let mut flushes: Vec<(usize, Vec<TraceRecord>)> = Vec::new();
            // Per-shard record ordinals: `read_seq[q]` counts records
            // routed to shard q (the Read stamp), `batched_seq[q]` counts
            // records flushed toward it (the Batched stamp). Channels are
            // FIFO and batches preserve input order, so these ordinals
            // are exactly the querier's latency-slot indices.
            let mut read_seq = vec![0u64; n_queriers];
            let mut batched_seq = vec![0u64; n_queriers];

            let mut deliver = |q: usize, batch: Vec<TraceRecord>, pstats: &mut Vec<ShardStats>| {
                if let Some(spans) = &spans {
                    let t_us = epoch.elapsed().as_micros() as u64;
                    let from = batched_seq[q];
                    spans.record_range(q, from..from + batch.len() as u64, Stage::Batched, t_us);
                }
                batched_seq[q] += batch.len() as u64;
                let observed = depths[q].load(Ordering::Relaxed);
                let observed = u32::try_from(observed).unwrap_or(u32::MAX);
                pstats[q].depths.push(observed);
                pstats[q].max_queue_depth = pstats[q].max_queue_depth.max(observed);
                match txs[q].try_send(batch) {
                    Ok(()) => {
                        depths[q].fetch_add(1, Ordering::Relaxed);
                    }
                    Err(mpsc::error::SendError(batch)) => {
                        // Full (or closed): count the stall, then block.
                        pstats[q].postman_stalls += 1;
                        if txs[q].blocking_send(batch).is_ok() {
                            depths[q].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            };
            let read = |q: usize, read_seq: &mut Vec<u64>| {
                if let Some(spans) = &spans {
                    let t_us = epoch.elapsed().as_micros() as u64;
                    spans.record(q, read_seq[q], Stage::Read, t_us);
                }
                read_seq[q] += 1;
            };

            let q = batcher.push(first.src, first.time_us, first, &mut flushes);
            read(q, &mut read_seq);
            for (q, batch) in flushes.drain(..) {
                deliver(q, batch, &mut pstats);
            }
            for rec in records {
                let Ok(rec) = rec else { break };
                let q = batcher.push(rec.src, rec.time_us, rec, &mut flushes);
                read(q, &mut read_seq);
                for (q, batch) in flushes.drain(..) {
                    deliver(q, batch, &mut pstats);
                }
                while let Some(spine) = recycle_rx.try_recv() {
                    batcher.donate(spine);
                }
            }
            for (q, batch) in batcher.finish() {
                deliver(q, batch, &mut pstats);
            }
            pstats
        });

        self.collect(handles, Some(postman)).await
    }

    fn querier(
        &self,
        shard: usize,
        trace_epoch_us: u64,
        epoch: Instant,
        registry: Arc<ldp_telemetry::Registry>,
    ) -> QuerierTask {
        QuerierTask {
            shard,
            server: self.server,
            mode: self.mode,
            trace_epoch_us,
            clock: ReplayClock::synchronize(trace_epoch_us, 0).with_speed(match self.mode {
                ReplayMode::Timed { speed } => speed,
                ReplayMode::Fast => 1.0,
            }),
            epoch,
            drain: self.drain,
            retry: self.retry.clone(),
            obs: self.obs.as_ref().map(|spans| ObsCtx {
                spans: spans.clone(),
                shard,
                epoch,
            }),
            registry,
        }
    }

    async fn collect(
        &self,
        handles: Vec<JoinHandle<QuerierResult>>,
        postman: Option<JoinHandle<Vec<ShardStats>>>,
    ) -> std::io::Result<ReplayReport> {
        let mut outcomes = Vec::new();
        let mut shards: Vec<ShardStats> = Vec::new();
        for h in handles {
            let (o, s) = h
                .await
                .map_err(|e| std::io::Error::other(format!("querier task failed: {e}")))??;
            // Millions of outcomes per shard: take the first shard's
            // vector rather than copying it.
            if outcomes.is_empty() {
                outcomes = o;
            } else {
                outcomes.extend(o);
            }
            shards.push(s);
        }
        shards.sort_by_key(|s| s.shard);
        if let Some(p) = postman {
            if let Ok(pstats) = p.await {
                for ps in pstats {
                    match shards.iter_mut().find(|s| s.shard == ps.shard) {
                        Some(s) => {
                            s.postman_stalls = ps.postman_stalls;
                            s.max_queue_depth = ps.max_queue_depth;
                            s.depths = ps.depths;
                        }
                        None => shards.push(ps),
                    }
                }
            }
        }
        let send_duration_us = outcomes
            .iter()
            .map(|o| o.sent_offset_us)
            .max()
            .unwrap_or(0)
            .saturating_sub(outcomes.iter().map(|o| o.sent_offset_us).min().unwrap_or(0))
            .max(if outcomes.is_empty() { 0 } else { 1 });
        let totals = ldp_metrics::PipelineTotals::from_shards(&shards);
        Ok(ReplayReport {
            outcomes,
            send_duration_us,
            sent: totals.sent,
            answered: totals.answered,
            timeouts: totals.timeouts,
            retries: totals.retries,
            reconnects: totals.reconnects,
            gave_up: totals.gave_up,
            errors: totals.errors,
            shards,
        })
    }
}

/// Bounded queue length per querier, in batches. With the default batch
/// size this gives the same ~4k-record read-ahead window as the previous
/// per-record channel, at 1/`batch_size` the synchronization cost.
const QUEUE_BATCHES: usize = 16;

/// `Timed`-mode partial batches flush once the input stream's trace time
/// has moved this far past their oldest record, so batch fill can never
/// delay a scheduled send (the reader runs well ahead of real time).
const BATCH_HORIZON_US: u64 = 100_000;

/// A `Timed` send is counted late in [`ShardStats`] when it misses its
/// scaled deadline by more than this (4× the paper's ±2.5 ms Figure 6
/// quartile window).
const LATE_BUDGET_US: u64 = 10_000;

/// Distinct UDP sockets per querier; sources beyond the cap share by
/// hash.
const MAX_UDP_SOCKETS: usize = 128;

/// One querier's handle on the replay's span sink: the shard index and
/// the shared epoch are bound once so the hot paths record a stage with
/// a single call. A query's span key is its latency-slot index, which
/// equals its per-shard record ordinal — the same number the Postman
/// counts on the read side, so both halves of the pipeline stamp the
/// same span without any id exchange.
#[derive(Clone)]
pub(crate) struct ObsCtx {
    spans: Arc<ReplaySpans>,
    shard: usize,
    epoch: Instant,
}

impl ObsCtx {
    /// Records `stage` at an offset already measured on the epoch clock.
    fn record_at(&self, seq: usize, stage: Stage, t_us: u64) {
        self.spans.record(self.shard, seq as u64, stage, t_us);
    }

    /// Records `stage` at a captured instant (receive paths take one
    /// timestamp per batch and reuse it).
    pub(crate) fn record_instant(&self, seq: usize, stage: Stage, now: Instant) {
        self.record_at(
            seq,
            stage,
            now.saturating_duration_since(self.epoch).as_micros() as u64,
        );
    }
}

/// A record's outcome, still without its latency, keyed by the latency
/// slot its answer lands in.
type Outcomes = Vec<(usize, ReplayOutcome)>;

struct QuerierTask {
    shard: usize,
    server: SocketAddr,
    mode: ReplayMode,
    trace_epoch_us: u64,
    clock: ReplayClock,
    epoch: Instant,
    drain: Duration,
    retry: RetryPolicy,
    obs: Option<ObsCtx>,
    /// Where the shard's counter block lives (the caller's telemetry
    /// registry, or a private one).
    registry: Arc<ldp_telemetry::Registry>,
}

/// Socket/connection state one querier's send path owns, factored out so
/// the batch loops can borrow it alongside the batch being drained.
struct QuerierState {
    server: SocketAddr,
    /// Shared with the receive loop: the in-flight table (one for the
    /// whole querier — ids come from the querier-wide counter, so they
    /// are unique across its sockets), latencies and counters.
    shard: Arc<Shard>,
    /// UDP sockets with their receive-loop tokens.
    udp: Vec<(Arc<UdpSocket>, u32)>,
    udp_by_source: HashMap<IpAddr, usize>,
    tcp: HashMap<IpAddr, TcpConn>,
    policy: RetryPolicy,
    next_id: u16,
}

impl QuerierState {
    /// UDP socket slot for `src`, creating one (registered with the
    /// receive loop) under the cap, sharing by hash beyond it. `None`
    /// means the bind failed; the caller degrades the record(s) to
    /// [`ReplayError::Bind`] outcomes — the failure is *not* cached, so
    /// the next record for this source tries again.
    async fn udp_slot(&mut self, src: IpAddr) -> Option<usize> {
        if let Some(&s) = self.udp_by_source.get(&src) {
            return Some(s);
        }
        let s = if self.udp.len() < MAX_UDP_SOCKETS {
            let socket = Arc::new(UdpSocket::bind("127.0.0.1:0").await.ok()?);
            let token = self.shard.register(Source::Udp(socket.clone())).ok()?;
            self.udp.push((socket, token));
            self.udp.len() - 1
        } else {
            // Cap reached: share sockets by source hash.
            hash_ip(src) % self.udp.len()
        };
        self.udp_by_source.insert(src, s);
        Some(s)
    }

    /// Live TCP connection for `src`, (re)opening — with capped backoff
    /// up to the policy's attempt budget — when absent or dead. `None`
    /// means every attempt failed; the caller degrades the record(s) to
    /// [`ReplayError::Connect`] outcomes.
    async fn tcp_conn(&mut self, src: IpAddr) -> Option<&mut TcpConn> {
        let prev_died = self.tcp.get(&src).map(TcpConn::is_dead);
        if prev_died == Some(false) {
            return self.tcp.get_mut(&src);
        }
        let attempts = self.policy.tcp_reconnect_attempts.max(1);
        for attempt in 0..attempts {
            if attempt > 0 {
                let pause = self
                    .policy
                    .tcp_reconnect_backoff
                    .delay(attempt - 1, hash_ip(src) as u64);
                tokio::time::sleep(pause).await;
            }
            if let Ok(c) = TcpConn::open(self.server, &self.shard).await {
                if prev_died == Some(true) {
                    self.shard.counters.reconnects.inc();
                }
                self.tcp.insert(src, c);
                return self.tcp.get_mut(&src);
            }
        }
        None
    }

    /// Gives each record of `run` a fresh querier-wide id, encodes it
    /// (length-prefixed for TCP) and registers it in the in-flight table,
    /// all under one lock taken before the first byte leaves, so no answer
    /// can beat its entry. Encoding happens outside the lock, which the
    /// receive loop needs for every answer. Returns `(index in run, id,
    /// bytes to send)`; a record that cannot be encoded gets no outcome.
    fn enqueue(
        &mut self,
        run: &mut [TraceRecord],
        base: usize,
        sock: SockRef,
    ) -> Vec<(usize, u16, Vec<u8>)> {
        let sent_at = Instant::now();
        let mut queued = Vec::with_capacity(run.len());
        let mut entries = Vec::with_capacity(run.len());
        for (k, rec) in run.iter_mut().enumerate() {
            self.next_id = self.next_id.wrapping_add(1);
            rec.message.header.id = self.next_id;
            let Ok(wire) = rec.message.to_bytes() else {
                continue;
            };
            let bytes = match sock {
                SockRef::Udp(_) => wire,
                SockRef::Tcp => match ldp_wire::framing::frame_message(&wire) {
                    Ok(framed) => framed,
                    Err(_) => continue,
                },
            };
            entries.push((
                self.next_id,
                self.in_flight(base + k, sent_at, sock, &bytes),
            ));
            queued.push((k, self.next_id, bytes));
        }
        let mut p = self.shard.pending.lock();
        for (id, entry) in entries {
            p.insert(id, entry);
        }
        queued
    }

    /// Builds the in-flight entry for a fresh (attempt-0) send. TCP
    /// entries get an expiry deadline too, even though the send path
    /// owns reconnection: without one, a query lost to a reset
    /// connection would pin the adaptive drain to its cap.
    fn in_flight(&self, slot: usize, sent_at: Instant, sock: SockRef, wire: &[u8]) -> InFlight {
        InFlight {
            slot,
            sent_at,
            deadline: self
                .policy
                .is_enabled()
                .then(|| sent_at + self.policy.timeout),
            attempt: 0,
            sock,
            wire: (self.policy.retains_wire() && matches!(sock, SockRef::Udp(_)))
                .then(|| wire.to_vec().into_boxed_slice()),
        }
    }
}

impl QuerierTask {
    async fn run(
        self,
        mut rx: mpsc::Receiver<Vec<TraceRecord>>,
        depth: Arc<AtomicUsize>,
        recycle: mpsc::Sender<Vec<TraceRecord>>,
    ) -> QuerierResult {
        let mut stats = ShardStats::new(self.shard);
        let shard = Arc::new(Shard::new(
            self.shard,
            self.server,
            self.retry.clone(),
            self.obs.clone(),
            &self.registry,
        )?);
        // A weak handle: the registry must not keep the shard's sockets
        // (or its 64k-slot table) alive after the replay.
        let weak = Arc::downgrade(&shard);
        self.registry.observe_gauge(
            "ldp_replay_in_flight",
            "Outstanding queries awaiting an answer or expiry",
            &[("shard", &self.shard.to_string())],
            move || {
                weak.upgrade()
                    .map_or(0, |s| s.pending.lock().in_flight as u64)
            },
        );
        let receiver = crate::recv::spawn(shard.clone())?;
        let mut state = QuerierState {
            server: self.server,
            shard: shard.clone(),
            udp: Vec::new(),
            udp_by_source: HashMap::new(),
            tcp: HashMap::new(),
            policy: self.retry.clone(),
            next_id: 0,
        };
        let mut meta: Outcomes = Vec::new();
        let mut last_deadline_us: u64 = 0;

        while let Some(mut batch) = rx.recv().await {
            depth.fetch_sub(1, Ordering::Relaxed);
            stats.batches += 1;
            // Reserve the batch's outcome slots under one lock.
            let base = {
                let mut l = shard.latencies.lock();
                let b = l.len();
                l.resize(b + batch.len(), None);
                b
            };
            let mut i = 0;
            while i < batch.len() {
                let j = match self.mode {
                    // Every record is individually paced on the scaled
                    // clock (batching only changed how records *arrive*,
                    // not when they are sent), then sent as a run of one.
                    ReplayMode::Timed { .. } => {
                        let deadline = self.clock.target_real_us(batch[i].time_us);
                        // Invariant: the plan feeds each querier records
                        // in trace order, so real-clock deadlines are
                        // monotone — a regression here would silently
                        // reorder the replayed stream.
                        debug_assert!(
                            deadline >= last_deadline_us,
                            "deadline went backwards: {deadline} < {last_deadline_us}"
                        );
                        last_deadline_us = deadline;
                        let now_us = self.epoch.elapsed().as_micros() as u64;
                        if let Some(o) = &self.obs {
                            o.record_at(base + i, Stage::Scheduled, now_us);
                        }
                        if let Some(delay) = self.clock.delay_us(batch[i].time_us, now_us) {
                            sleep_until_precise(Instant::now() + Duration::from_micros(delay))
                                .await;
                        }
                        i + 1
                    }
                    // Consecutive same-source same-protocol records form
                    // a run (sticky routing makes runs long), blasted as
                    // a unit: one dequeue stamp for the whole run.
                    ReplayMode::Fast => {
                        let (src, protocol) = (batch[i].src, batch[i].protocol);
                        let run = batch[i..]
                            .iter()
                            .take_while(|r| r.src == src && r.protocol == protocol)
                            .count();
                        if let Some(o) = &self.obs {
                            let t_us = self.epoch.elapsed().as_micros() as u64;
                            for k in i..i + run {
                                o.record_at(base + k, Stage::Scheduled, t_us);
                            }
                        }
                        i + run
                    }
                };
                self.send_run(
                    &mut batch[i..j],
                    base + i,
                    &mut state,
                    &mut meta,
                    &mut stats,
                )
                .await;
                i = j;
            }
            batch.clear();
            // Recycling is best-effort; a full (or closed) return channel
            // just means this spine gets reallocated.
            let _ = recycle.try_send(batch); // ldp-lint: allow(r5) -- spine recycling, not a query send
        }

        // Adaptive drain, run by the receive loop: it exits once every
        // in-flight query is answered, retried out, or expired — `drain`
        // is only the hard cap (and the whole wait when expiry is
        // disabled and answers were lost). Then every socket closes.
        shard.pending.lock().drain_until = Some(Instant::now() + self.drain);
        receiver
            .join()
            .map_err(|_| std::io::Error::other("receive loop panicked"))?;
        drop(state);

        let latencies = shard.latencies.lock();
        shard.counters.snapshot_into(&mut stats);
        let outcomes = meta
            .into_iter()
            .map(|(slot, outcome)| ReplayOutcome {
                latency_us: latencies.get(slot).copied().flatten(),
                ..outcome
            })
            .collect();
        Ok((outcomes, stats))
    }

    /// Sends `run` — records sharing one source and protocol, the first
    /// in latency slot `base` — with one socket lookup and one pending
    /// lock: a UDP run is one `sendmmsg`, a TCP run one write carrying
    /// every frame. Faults never abort: a bind/connect/send failure
    /// degrades the affected records to [`ReplayError`] outcomes, and a
    /// dead TCP connection is reopened with the run's buffer re-sent.
    async fn send_run(
        &self,
        run: &mut [TraceRecord],
        base: usize,
        state: &mut QuerierState,
        meta: &mut Outcomes,
        stats: &mut ShardStats,
    ) {
        let Some(&TraceRecord { src, protocol, .. }) = run.first() else {
            return;
        };
        let shard = state.shard.clone();
        let queued;
        let mut errs: Vec<Option<ReplayError>> = Vec::new();
        // The span's `Sent` stamp is captured before the send: the
        // receive loop stamps `Answered` on its own thread, and only a
        // pre-send stamp is causally ordered before the answer. The
        // outcome's `sent_offset_us` still measures send *completion*.
        let wire_stamp_us;
        match protocol {
            Protocol::Udp => {
                let Some(slot) = state.udp_slot(src).await else {
                    // The next run for this source tries binding again.
                    let error = Some(ReplayError::Bind);
                    for (k, rec) in run.iter().enumerate() {
                        self.outcome(rec, base + k, error, &shard, meta, stats);
                    }
                    return;
                };
                let (socket, token) = state.udp[slot].clone();
                queued = state.enqueue(run, base, SockRef::Udp(token));
                wire_stamp_us = self.epoch.elapsed().as_micros() as u64;
                // Any tail the kernel refuses goes out individually; a
                // datagram that still fails degrades its record.
                let sent_n = socket
                    .send_many_to(queued.iter().map(|q| q.2.as_slice()), self.server)
                    .await
                    .unwrap_or(0);
                errs = vec![None; queued.len()];
                for (x, (_, _, wire)) in queued.iter().enumerate().skip(sent_n) {
                    if socket.send_to(wire, self.server).await.is_err() {
                        errs[x] = Some(ReplayError::Send);
                        shard.pending.lock().remove(queued[x].1);
                    }
                }
            }
            Protocol::Tcp | Protocol::Tls | Protocol::Quic => {
                // Live mode carries TLS/QUIC as TCP: handshake emulation
                // is a simulator concern; live TCP still exercises
                // framing and connection reuse. An open that fails every
                // reconnect attempt degrades the whole run.
                if state.tcp_conn(src).await.is_none() {
                    let error = Some(ReplayError::Connect);
                    for (k, rec) in run.iter().enumerate() {
                        self.outcome(rec, base + k, error, &shard, meta, stats);
                    }
                    return;
                }
                queued = state.enqueue(run, base, SockRef::Tcp);
                let buf = queued
                    .iter()
                    .map(|q| q.2.as_slice())
                    .collect::<Vec<_>>()
                    .concat();
                wire_stamp_us = self.epoch.elapsed().as_micros() as u64;
                // On a write failure, reconnect (counted) and re-send the
                // run once; answers on the new connection match against
                // the same pending table, and duplicates find no entry.
                // A second failure leaves the run to expire (`gave_up`).
                for _ in 0..2 {
                    let Some(conn) = state.tcp_conn(src).await else {
                        break;
                    };
                    if buf.is_empty() || conn.writer.write_all(&buf).await.is_ok() {
                        break;
                    }
                    conn.mark_dead();
                }
            }
        }
        for (x, &(k, _, _)) in queued.iter().enumerate() {
            let error = errs.get(x).copied().flatten();
            if let (None, Some(o)) = (error, &self.obs) {
                o.record_at(base + k, Stage::Sent, wire_stamp_us);
            }
            self.outcome(&run[k], base + k, error, &shard, meta, stats);
        }
    }

    /// Accounts one record's fate: its outcome, the sent or error count,
    /// and for a Timed send how far behind schedule it went out (the §3
    /// send-lag drift signal, and `late` past the budget).
    fn outcome(
        &self,
        rec: &TraceRecord,
        slot: usize,
        error: Option<ReplayError>,
        shard: &Shard,
        meta: &mut Outcomes,
        stats: &mut ShardStats,
    ) {
        let sent_offset_us = self.epoch.elapsed().as_micros() as u64;
        let target_offset_us = self.clock.target_real_us(rec.time_us);
        if error.is_some() {
            shard.counters.errors.inc();
        } else {
            shard.counters.sent.inc();
            if let ReplayMode::Timed { .. } = self.mode {
                let lag_us = sent_offset_us.saturating_sub(target_offset_us);
                shard.counters.send_lag_us.add(lag_us);
                if lag_us > LATE_BUDGET_US {
                    stats.late += 1;
                }
            }
        }
        meta.push((
            slot,
            ReplayOutcome {
                trace_offset_us: rec.time_us.saturating_sub(self.trace_epoch_us),
                target_offset_us,
                sent_offset_us,
                latency_us: None,
                src: rec.src,
                protocol: rec.protocol,
                error,
            },
        ));
    }
}

fn hash_ip(ip: IpAddr) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    ip.hash(&mut h);
    h.finish() as usize
}

/// The send half of one source's TCP connection; the receive half lives
/// in the shard's receive loop.
struct TcpConn {
    writer: tokio::net::tcp::OwnedWriteHalf,
    /// Set by the send path on a write failure *or* by the receive loop
    /// on EOF/read error — a server that resets mid-conversation is
    /// usually noticed by the receiver first, and the flag is what
    /// triggers a reconnect on the next use of this source's connection.
    dead: Arc<AtomicBool>,
}

impl TcpConn {
    async fn open(server: SocketAddr, shard: &Shard) -> std::io::Result<TcpConn> {
        let stream = tokio::net::TcpStream::connect(server).await?;
        stream.set_nodelay(true)?;
        let (read, writer) = stream.into_split();
        let dead = Arc::new(AtomicBool::new(false));
        shard.register(Source::Tcp(TcpReader::new(read, dead.clone())))?;
        Ok(TcpConn { writer, dead })
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    fn mark_dead(&self) {
        self.dead.store(true, Ordering::Relaxed);
    }
}

/// Coarse sleep to within ~1.5 ms of the target, then a *yielding* spin —
/// tokio's timer wheel alone is too coarse for the ±2.5 ms quartile errors
/// the paper reports, but a blocking spin would starve the other queriers
/// sharing the worker pool (fatal on single-core hosts: every spin blocks
/// every other querier's sends). `yield_now` re-polls the deadline each
/// scheduler pass, so concurrent queriers interleave at ~µs granularity.
async fn sleep_until_precise(target: Instant) {
    const SPIN_WINDOW: Duration = Duration::from_micros(1500);
    if let Some(coarse) = target.checked_sub(SPIN_WINDOW) {
        if Instant::now() < coarse {
            tokio::time::sleep_until(coarse.into()).await;
        }
    }
    while Instant::now() < target {
        tokio::task::yield_now().await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_server::auth::AuthEngine;
    use ldp_server::live::LiveServer;
    use ldp_wire::{Name, RrType};
    use ldp_workload::zones::wildcard_example_zone;
    use ldp_zone::ZoneSet;
    use std::sync::atomic::AtomicU64;

    fn engine() -> Arc<AuthEngine> {
        let mut set = ZoneSet::new();
        set.insert(wildcard_example_zone());
        Arc::new(AuthEngine::with_zones(Arc::new(set)))
    }

    /// Serializes the timing-assertion tests. Under a full-parallel
    /// `cargo test` the whole workspace's binaries contend for the same
    /// cores; two replays pacing sleeps concurrently *in this binary*
    /// compound each other's scheduler delay and flake. One at a time,
    /// each sees only the ambient load — which the calibrated budget
    /// below absorbs.
    static TIMING_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Load-derived timing budget, measured *while* the replay runs: a
    /// probe task on the same runtime repeatedly issues 2 ms sleeps and
    /// records the worst overshoot it sees. On an idle host overshoot is
    /// microseconds and the budget stays at the 50 ms floor — sharp
    /// enough to catch the Figure 6 accounting regression (≥135 ms p90).
    /// On a host oversubscribed by the rest of the parallel test run,
    /// sleeps fire hundreds of milliseconds late; the pacing loop is
    /// starved by exactly the same scheduler, so the budget scales with
    /// the starvation the probe actually observed rather than flaking.
    struct LoadProbe {
        worst_us: Arc<AtomicU64>,
        stop: Arc<AtomicBool>,
        task: JoinHandle<()>,
    }

    impl LoadProbe {
        fn start() -> LoadProbe {
            let worst_us = Arc::new(AtomicU64::new(0));
            let stop = Arc::new(AtomicBool::new(false));
            let (w, s) = (worst_us.clone(), stop.clone());
            let task = tokio::spawn(async move {
                while !s.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    tokio::time::sleep(Duration::from_millis(2)).await;
                    let over = t0.elapsed().saturating_sub(Duration::from_millis(2));
                    w.fetch_max(over.as_micros() as u64, Ordering::Relaxed);
                }
            });
            LoadProbe {
                worst_us,
                stop,
                task,
            }
        }

        /// Stops the probe and returns what timing budget (ms) the host
        /// earned: `Some(50 + 20×worst overshoot)` when the runtime
        /// stayed responsive (sub-millisecond worst overshoot — a sharp
        /// bound an idle host always meets), `None` when real contention
        /// showed up. Contention caps instantaneous scheduler lag, but a
        /// throughput-starved host (1 CPU shared with `cargo test`'s
        /// still-compiling crates) accumulates *unbounded* send backlog
        /// the probe cannot predict — no budget derived from the probe is
        /// honest there, so the timing assertion must be skipped, not
        /// loosened.
        async fn budget_ms(self) -> Option<f64> {
            self.stop.store(true, Ordering::Relaxed);
            let _ = self.task.await;
            let worst_ms = self.worst_us.load(Ordering::Relaxed) as f64 / 1e3;
            if worst_ms > 1.0 {
                eprintln!(
                    "note: probe saw {worst_ms:.2} ms sleep overshoot; \
                     host too contended to judge replay timing"
                );
                return None;
            }
            Some(50.0 + 20.0 * worst_ms)
        }
    }

    /// The value `frac` of the way up the sorted magnitudes. Timing
    /// assertions bound a high percentile, not the max: a single
    /// scheduler hiccup on an oversubscribed test host can make one send
    /// arbitrarily late, while the regressions these tests guard
    /// (accounting bugs, systematic pacing drift) shift the whole
    /// distribution — exactly what a quartile-style bound catches (the
    /// paper's Figure 6 reports quartile windows for the same reason).
    fn percentile(errors: &[f64], frac: f64) -> f64 {
        let mut mags: Vec<f64> = errors.iter().map(|e| e.abs()).collect();
        mags.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        if mags.is_empty() {
            return 0.0;
        }
        let idx = ((mags.len() as f64 - 1.0) * frac).round() as usize;
        mags[idx.min(mags.len() - 1)]
    }

    fn trace(n: u64, gap_us: u64, protocol: Protocol) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| {
                let mut rec = TraceRecord::udp_query(
                    i * gap_us,
                    format!("10.0.0.{}", 1 + i % 5).parse().unwrap(),
                    (1024 + i % 60000) as u16,
                    Name::parse(&format!("q{i}.example.com")).unwrap(),
                    RrType::A,
                );
                rec.protocol = protocol;
                rec
            })
            .collect()
    }

    // Holding the serialization guard across await is the point: the
    // whole replay must run while no sibling timing test does.
    #[allow(clippy::await_holding_lock)]
    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn udp_replay_answers_and_times() {
        let _serial = TIMING_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let replay = LiveReplay::new(server.addr);
        let probe = LoadProbe::start();
        let report = replay.run(trace(200, 2_000, Protocol::Udp)).await.unwrap();
        let budget = probe.budget_ms().await;
        assert_eq!(report.sent, 200);
        assert!(
            report.answered >= 195,
            "answered only {}/200",
            report.answered
        );
        // Timing errors should be tiny on loopback: bound the 90th
        // percentile by the load-derived budget (a stray hiccup may push
        // the max; a shifted distribution means a real pacing bug). A
        // contended host earns no budget and the timing check is waived.
        if let Some(budget) = budget {
            let errors = report.timing_errors_ms();
            let p90 = percentile(&errors, 0.9);
            assert!(p90 < budget, "p90 timing error {p90} ms (budget {budget})");
        }
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn fast_mode_outruns_trace_timing() {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let mut replay = LiveReplay::new(server.addr);
        replay.mode = ReplayMode::Fast;
        // Trace nominally spans 10s; fast mode must finish way earlier.
        let t0 = Instant::now();
        let report = replay.run(trace(500, 20_000, Protocol::Udp)).await.unwrap();
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert_eq!(report.sent, 500);
        assert!(report.achieved_qps() > 500.0);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn tcp_replay_reuses_connections() {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let mut replay = LiveReplay::new(server.addr);
        replay.mode = ReplayMode::Fast;
        let report = replay.run(trace(100, 1_000, Protocol::Tcp)).await.unwrap();
        assert_eq!(report.sent, 100);
        assert!(report.answered >= 95, "answered {}", report.answered);
        // 100 queries from 5 distinct sources: connections ≪ queries.
        let conns = server
            .stats
            .tcp_connections
            .load(std::sync::atomic::Ordering::Relaxed);
        assert!(conns <= 10, "expected ≤10 connections, saw {conns}");
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn streamed_replay_from_encoded_trace() {
        // Round-trip through the on-disk stream format and replay without
        // materializing the trace (the §3 Reader pre-load path).
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let records = trace(300, 1_000, Protocol::Udp);
        let bytes = ldp_trace::stream::to_bytes(&records).unwrap();
        let reader = ldp_trace::stream::StreamReader::new(std::io::Cursor::new(bytes)).unwrap();
        let mut replay = LiveReplay::new(server.addr);
        replay.mode = ReplayMode::Fast;
        replay.drain = Duration::from_millis(800);
        let report = replay.run_stream(reader).await.unwrap();
        assert_eq!(report.sent, 300);
        // Fast-blasting 300 UDP datagrams while sibling tests contend for
        // the same core can overflow socket buffers; require a strong
        // majority rather than near-perfection.
        assert!(report.answered >= 240, "answered {}", report.answered);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn streamed_replay_empty_input() {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let report = LiveReplay::new(server.addr)
            .run_stream(std::iter::empty())
            .await
            .unwrap();
        assert_eq!(report.sent, 0);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn empty_trace_is_fine() {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let report = LiveReplay::new(server.addr).run(vec![]).await.unwrap();
        assert_eq!(report.sent, 0);
        assert_eq!(report.achieved_qps(), 0.0);
    }

    /// Regression for the Figure 6 accounting bug: at `speed != 1.0` the
    /// old metric compared send times against the *unscaled* trace
    /// offset, so a half-time replay reported ~half the trace span as
    /// "error". The fixed metric compares against the scaled target and
    /// must stay loopback-small at any speed.
    // As above: the guard must span the replay to serialize timing tests.
    #[allow(clippy::await_holding_lock)]
    async fn timing_errors_stay_small_at(speed: f64) {
        let _serial = TIMING_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let mut replay = LiveReplay::new(server.addr);
        replay.mode = ReplayMode::Timed { speed };
        // 100 records spanning 300 ms of trace time.
        let probe = LoadProbe::start();
        let report = replay.run(trace(100, 3_000, Protocol::Udp)).await.unwrap();
        let budget = probe.budget_ms().await;
        assert_eq!(report.sent, 100);
        let errors = report.timing_errors_ms();
        // The old bug made errors ramp ≈ (1 − speed) × trace time across
        // the whole replay (|p90| ≥ 135 ms here); the corrected metric
        // stays loopback-small at every percentile, so bounding the 90th
        // keeps the regression caught without flaking on one late send.
        // A contended host earns no budget and the timing check is waived.
        if let Some(budget) = budget {
            let p90 = percentile(&errors, 0.9);
            assert!(
                p90 < budget,
                "speed {speed}: p90 |timing error| {p90} ms (budget {budget})"
            );
        }
        // Targets really are the scaled offsets.
        for o in &report.outcomes {
            let want = (o.trace_offset_us as f64 * speed) as u64;
            let diff = o.target_offset_us.abs_diff(want);
            assert!(
                diff <= 1,
                "target {} vs scaled trace offset {want} (speed {speed})",
                o.target_offset_us
            );
        }
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn timing_errors_correct_at_double_speed() {
        timing_errors_stay_small_at(0.5).await;
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn timing_errors_correct_at_half_speed() {
        timing_errors_stay_small_at(2.0).await;
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn shard_stats_cover_all_sends() {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let mut replay = LiveReplay::new(server.addr);
        replay.mode = ReplayMode::Fast;
        replay.batch_size = 32;
        let report = replay.run(trace(400, 500, Protocol::Udp)).await.unwrap();
        assert_eq!(report.sent, 400);
        let totals = ldp_metrics::PipelineTotals::from_shards(&report.shards);
        assert_eq!(totals.sent, report.sent);
        assert_eq!(totals.answered, report.answered);
        assert!(totals.batches >= report.shards.iter().filter(|s| s.sent > 0).count() as u64);
        // Every active shard drained at least one batch and observed its
        // queue depth at enqueue time.
        for s in report.shards.iter().filter(|s| s.sent > 0) {
            assert!(s.batches > 0, "shard {} sent but drained no batch", s.shard);
            assert!(
                !s.depths.is_empty(),
                "shard {} has no depth samples",
                s.shard
            );
        }
        // Fast mode never counts lateness.
        assert_eq!(totals.late, 0);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn fast_mode_preserves_same_source_order_across_batches() {
        // Batch boundaries must not reorder a source's queries: outcomes
        // carry trace offsets, and per source they must be sent in trace
        // order (monotone sent offsets when sorted by trace offset).
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let mut replay = LiveReplay::new(server.addr);
        replay.mode = ReplayMode::Fast;
        replay.batch_size = 16; // force many batch boundaries
        let report = replay.run(trace(600, 100, Protocol::Udp)).await.unwrap();
        assert_eq!(report.sent, 600);
        let mut by_src: HashMap<IpAddr, Vec<(u64, u64)>> = HashMap::new();
        for o in &report.outcomes {
            by_src
                .entry(o.src)
                .or_default()
                .push((o.trace_offset_us, o.sent_offset_us));
        }
        assert_eq!(by_src.len(), 5);
        for (src, mut sends) in by_src {
            sends.sort_unstable();
            assert!(
                sends.windows(2).all(|w| w[0].1 <= w[1].1),
                "source {src} reordered across batch boundaries"
            );
        }
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn telemetry_counters_match_the_final_report() {
        let server = LiveServer::spawn(engine(), "127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let reg = Arc::new(ldp_telemetry::Registry::new());
        let mut replay = LiveReplay::new(server.addr);
        replay.mode = ReplayMode::Fast;
        replay.telemetry = Some(reg.clone());
        let report = replay.run(trace(200, 1_000, Protocol::Udp)).await.unwrap();
        let samples = reg.snapshot();
        let sum = |name: &str| -> u64 {
            samples
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.value)
                .sum()
        };
        assert_eq!(sum("ldp_replay_sent_total"), report.sent);
        assert_eq!(sum("ldp_replay_answered_total"), report.answered);
        assert_eq!(sum("ldp_replay_errors_total"), report.errors);
        assert_eq!(sum("ldp_replay_gave_up_total"), report.gave_up);
        // One queue-depth gauge and one in-flight gauge per shard, all
        // back to zero once the replay has drained.
        let gauges = |name: &'static str| samples.iter().filter(move |s| s.name == name);
        assert_eq!(
            gauges("ldp_replay_queue_depth").count(),
            report.shards.len()
        );
        assert_eq!(gauges("ldp_replay_in_flight").count(), report.shards.len());
        assert!(gauges("ldp_replay_queue_depth").all(|s| s.value == 0));
        assert!(gauges("ldp_replay_in_flight").all(|s| s.value == 0));
    }
}
