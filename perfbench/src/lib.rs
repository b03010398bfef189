//! Repository benchmark: live replay against a loopback `LiveServer`.
//!
//! One run prepares a workload's inputs, sets the server up (several times,
//! for a median set-up time), checks live answers against the engine,
//! replays once through `LiveReplay::run_stream`, checks the accounting,
//! and prints one JSON result line. An untraced run reports the end-to-end
//! metrics; a traced run (the `perfbench-traced` binary, which counts
//! allocations) reports per-layer metrics. See README.md next to this
//! crate for the workloads, the metrics and the measured facts behind
//! their choice.

pub mod alloc;
pub mod inputs;
pub mod layers;
pub mod live;
pub mod proc;
pub mod report;

use std::net::IpAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ldp_obs::{ReplaySpans, StageBreakdown};
use ldp_replay::{LiveReplay, ReplayMode, ReplayPlan, ReplayReport, RetryPolicy};
use ldp_server::auth::AuthEngine;
use ldp_server::live::LiveServer;
use ldp_trace::{TraceError, TraceRecord};

use inputs::{FastHitQueries, Prepared, Workload};
use report::Metrics;

/// Set-up repetitions per run; `setup_s` uses their median.
const SETUP_REPS: usize = 5;

/// Records of the workload's own input the per-layer stages run over.
const LAYER_SAMPLE: usize = 20_000;

/// Records the correctness preflight checks, spread over the sample.
const PREFLIGHT_SAMPLE: usize = 64;

/// Span ring capacity per shard in the traced phase (the most recent
/// ~400k queries' events are kept).
const SPAN_CAPACITY: usize = 1 << 21;

/// Records between two thread-count samples.
const THREAD_SAMPLE_EVERY: u64 = 4_096;

/// Records between two admission-time samples (fast-hit).
const DUE_EVERY: u64 = 64;

/// Hard cap on the timed replays' post-send drain. The engine's default
/// cap (300 ms) is shorter than its own default retry schedule (250, 500
/// and 1,000 ms, each plus up to 25% jitter), so a host stall in a run's
/// last second left queries unanswered that the retry policy would have
/// settled. The drain ends as soon as nothing is in flight, so a calm run
/// does not wait.
const TIMED_DRAIN: Duration = Duration::from_secs(3);

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <fast-hit|broot-timed|tcp-timed> --seed <n> --seconds <n> --trace <0|1>";

impl Args {
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = |_| format!("bad value {value:?} for {flag}\n{USAGE}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}\n{USAGE}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1\n{USAGE}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
            }
        }
        let missing = |f: &str| format!("missing {f}\n{USAGE}");
        Ok(Args {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds
                .filter(|&s| s > 0)
                .ok_or_else(|| missing("--seconds (> 0)"))?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Entry point shared by both binaries; `counting` says whether the
/// calling binary installed [`alloc::CountingAlloc`].
pub fn main_with(counting: bool) -> i32 {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if args.trace && !counting {
        eprintln!("--trace 1 needs the perfbench-traced binary (allocation counting)");
        return 2;
    }
    match run(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

/// Working directory for prepared inputs, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(args: &Args) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".bench_work").join(format!(
            "{}-{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave the parent only if other runs still use it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

type Records = Box<dyn Iterator<Item = Result<TraceRecord, TraceError>> + Send>;

/// The workload's record stream for one replay.
fn records(args: &Args, prepared: &Prepared) -> Result<Records, String> {
    match &prepared.trace {
        Some(path) => Ok(Box::new(inputs::open_trace(path)?)),
        None => Ok(Box::new(FastHitQueries::new(
            args.seed,
            Some(Duration::from_secs(args.seconds)),
        ))),
    }
}

/// The first `n` records of the workload's input.
fn head(args: &Args, prepared: &Prepared, n: usize) -> Result<Vec<TraceRecord>, String> {
    records(args, prepared)?
        .take(n)
        .map(|rec| rec.map_err(|e| e.to_string()))
        .collect()
}

/// What one record stream saw while the engine pulled from it.
#[derive(Debug, Default, Clone)]
struct PullTotals {
    pulled: u64,
    first_pull: Option<Instant>,
    read_ns: u64,
    read_allocs: u64,
    threads_peak: u64,
    /// `(pull index, µs after the first pull)` of every `DUE_EVERY`-th
    /// record, when the workload has no schedule of its own.
    due: Vec<(u64, u64)>,
    /// The moment the input ran out, with process CPU then and the CPU of
    /// the Timed queriers' threads then (see [`Pulls::spinners`]).
    input_end: Option<InputEnd>,
}

#[derive(Debug, Clone, Copy)]
struct InputEnd {
    at: Instant,
    cpu: Duration,
    spinner_cpu: Duration,
}

/// Wraps the engine's record iterator: stamps the first pull (the end of
/// set-up), holds pulls to the fast-hit window, counts pulls, and
/// optionally times each pull and samples the process thread count.
/// Totals are published when the engine drops it.
struct Pulls {
    inner: Records,
    window: Option<inputs::Window>,
    time_reads: bool,
    sample_threads: bool,
    /// Record admission times (fast-hit: a query is due when admitted).
    record_due: bool,
    /// Timed replays pace sends by busy-waiting, so each querier thread is
    /// on CPU nearly all the time whatever the per-query work. At input
    /// end the `spinners` busiest threads created after `spinner_tid_floor`
    /// (the queriers) are read, so their CPU can be set apart.
    spinners: usize,
    spinner_tid_floor: u64,
    clock_overhead_ns: u64,
    totals: PullTotals,
    out: Arc<Mutex<PullTotals>>,
}

impl Iterator for Pulls {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        let t = &mut self.totals;
        t.first_pull.get_or_insert_with(Instant::now);
        if let Some(w) = &mut self.window {
            w.admit(t.pulled);
        }
        let rec = if self.time_reads {
            let a0 = alloc::thread_allocs();
            let t0 = Instant::now();
            let rec = self.inner.next();
            t.read_ns += (t0.elapsed().as_nanos() as u64).saturating_sub(self.clock_overhead_ns);
            t.read_allocs += alloc::thread_allocs() - a0;
            rec
        } else {
            self.inner.next()
        };
        if rec.is_some() {
            if self.record_due && t.pulled.is_multiple_of(DUE_EVERY) {
                let since = t.first_pull.map_or(0, |f| f.elapsed().as_micros() as u64);
                t.due.push((t.pulled, since));
            }
            t.pulled += 1;
            if self.sample_threads && t.pulled % THREAD_SAMPLE_EVERY == 1 {
                t.threads_peak = t.threads_peak.max(proc::threads());
            }
        } else if t.input_end.is_none() {
            let cpu = proc::cpu_time();
            let mut threads: Vec<u64> = proc::thread_cpu_ns()
                .into_iter()
                .filter(|&(tid, _)| tid > self.spinner_tid_floor)
                .map(|(_, ns)| ns)
                .collect();
            threads.sort_unstable_by(|a, b| b.cmp(a));
            let spinner_ns: u64 = threads.iter().take(self.spinners).sum();
            t.input_end = Some(InputEnd {
                at: Instant::now(),
                cpu,
                spinner_cpu: Duration::from_nanos(spinner_ns),
            });
        }
        rec
    }
}

impl Drop for Pulls {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            *out = self.totals.clone();
        }
    }
}

/// Server counters read before and after a replay.
#[derive(Debug, Clone, Copy, Default)]
struct ServerCounters {
    handled: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    tcp_connections: u64,
    send_failures: u64,
}

impl ServerCounters {
    fn read(server: &LiveServer) -> ServerCounters {
        use std::sync::atomic::Ordering::Relaxed;
        let s = &server.stats;
        ServerCounters {
            handled: live::handled(server),
            hits: s.pktcache.hits.load(Relaxed),
            misses: s.pktcache.misses.load(Relaxed),
            evictions: s.pktcache.evictions.load(Relaxed),
            tcp_connections: s.tcp_connections.load(Relaxed),
            send_failures: s.send_failures.load(Relaxed),
        }
    }

    fn since(self, before: ServerCounters) -> ServerCounters {
        ServerCounters {
            handled: self.handled - before.handled,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            tcp_connections: self.tcp_connections - before.tcp_connections,
            send_failures: self.send_failures - before.send_failures,
        }
    }
}

/// Everything one replay phase measured.
struct Phase {
    report: ReplayReport,
    pulls: PullTotals,
    /// From calling `run_stream` to its first record pull.
    engine_start: Duration,
    wall: Duration,
    cpu_start: Duration,
    cpu: Duration,
    rss_start: u64,
    peak_rss: u64,
    server: ServerCounters,
    spans: Option<Arc<ReplaySpans>>,
    /// Widenings of the fast-hit window after 100 ms without an answer.
    window_stalls: u64,
}

/// How a phase is instrumented.
#[derive(Debug, Clone, Copy)]
struct Instrument {
    /// Spans on every query plus a telemetry registry attached.
    traced: bool,
    /// Sample the process thread count from the record stream.
    sample_threads: bool,
}

fn replay_config(args: &Args, server: &LiveServer, queriers: usize) -> LiveReplay {
    let mut replay = LiveReplay::new(server.addr);
    replay.distributors = 1;
    replay.queriers_per_distributor = queriers;
    if args.workload.is_timed() {
        replay.mode = ReplayMode::Timed { speed: 1.0 };
        replay.drain = TIMED_DRAIN;
    } else {
        replay.mode = ReplayMode::Fast;
        // Retries off, as for the §4.3 generator: every answer comes from
        // a query's first and only send.
        replay.retry = RetryPolicy::disabled();
    }
    replay
}

fn replay_phase(
    args: &Args,
    prepared: &Prepared,
    rt: &tokio::runtime::Runtime,
    server: &LiveServer,
    queriers: usize,
    how: Instrument,
) -> Result<Phase, String> {
    let timed = args.workload.is_timed();
    let mut replay = replay_config(args, server, queriers);
    let spans = how
        .traced
        .then(|| Arc::new(ReplaySpans::with_capacity(queriers, 1, SPAN_CAPACITY)));
    // The fast-hit load reads the engine's live answered counters, so its
    // replay always carries a registry; otherwise only a traced one does.
    let registry = (how.traced || !timed).then(|| Arc::new(ldp_telemetry::Registry::new()));
    if how.traced {
        if let Some(registry) = &registry {
            server.register_telemetry(registry);
        }
        replay.obs = spans.clone();
    }
    let window_stalls = Arc::new(AtomicU64::new(0));
    let window = registry
        .as_ref()
        .filter(|_| !timed)
        .map(|r| inputs::Window::new(r, queriers, window_stalls.clone()));
    replay.telemetry = registry;
    let out = Arc::new(Mutex::new(PullTotals::default()));
    let pulls = Pulls {
        inner: records(args, prepared)?,
        window,
        time_reads: how.traced,
        sample_threads: how.sample_threads,
        record_due: !timed,
        spinners: if timed { queriers } else { 0 },
        spinner_tid_floor: proc::max_tid(),
        clock_overhead_ns: layers::clock_overhead_ns(),
        totals: PullTotals::default(),
        out: out.clone(),
    };
    proc::reset_peak_rss()
        .map_err(|e| format!("cannot reset peak RSS via /proc/self/clear_refs: {e}"))?;
    let rss_start = proc::rss_bytes();
    let before = ServerCounters::read(server);
    let cpu0 = proc::cpu_time();
    let t0 = Instant::now();
    let report = rt
        .block_on(replay.run_stream(pulls))
        .map_err(|e| format!("replay failed: {e}"))?;
    let wall = t0.elapsed();
    let cpu = proc::cpu_time().saturating_sub(cpu0);
    let peak_rss = proc::peak_rss_bytes();
    let server_delta = ServerCounters::read(server).since(before);
    let pulls = out.lock().map_err(|_| "pull totals poisoned")?.clone();
    let engine_start = pulls
        .first_pull
        .map_or(Duration::ZERO, |p| p.saturating_duration_since(t0));
    Ok(Phase {
        report,
        pulls,
        engine_start,
        wall,
        cpu_start: cpu0,
        cpu,
        rss_start,
        peak_rss,
        server: server_delta,
        spans,
        window_stalls: window_stalls.load(Ordering::Relaxed),
    })
}

/// Nearest-rank quantile of an ascending slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of values truncated to whole `unit`s, interpolated within the
/// median's unit as for grouped data: the values recorded as `v` are taken
/// as spread evenly over `[v, v + unit)`. Gives sub-unit resolution to a
/// median of integer-microsecond samples. `sorted` must be ascending.
fn grouped_median(sorted: &[f64], unit: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let m = quantile(sorted, 0.5);
    let below = sorted.partition_point(|&v| v < m) as f64;
    let at = sorted.partition_point(|&v| v <= m) as f64 - below;
    m + unit * (sorted.len() as f64 / 2.0 - below) / at.max(1.0)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Response times of the queries due after warm-up.
struct Responses {
    /// `(second due, ms)` of each answered query.
    answered: Vec<(u64, f64)>,
    /// Queries due after warm-up, answered or not, by second due.
    due: std::collections::BTreeMap<u64, u64>,
}

/// A query counts as on time when answered within this long after it was
/// due: the engine's own lateness budget, 4× the ±2.5 ms quartile window
/// of the paper's Figure 6.
const ON_TIME_MS: f64 = 10.0;

/// Response times after warm-up, and send lateness (ms, sorted; empty in
/// Fast mode, which has no schedule to be late for).
///
/// A response time runs from when the query was due to its matched answer,
/// so a stall counts against every query queued behind it. A timed query
/// is due at its scaled trace deadline; warm-up is the first quarter of
/// trace time, as in fig06. A fast-hit query is due when the load admits
/// it into the engine (sampled every `DUE_EVERY` records); warm-up is the
/// first quarter of the admissions.
fn response_times(args: &Args, phase: &Phase, queriers: usize) -> (Responses, Vec<f64>) {
    let report = &phase.report;
    let mut answered = Vec::new();
    let mut due_count: std::collections::BTreeMap<u64, u64> = Default::default();
    let mut lateness = Vec::new();
    if args.workload.is_timed() {
        let horizon = report
            .outcomes
            .iter()
            .map(|o| o.trace_offset_us)
            .max()
            .unwrap_or(0);
        for o in report
            .outcomes
            .iter()
            .filter(|o| o.trace_offset_us >= horizon / 4)
        {
            *due_count.entry(o.trace_offset_us / 1_000_000).or_default() += 1;
            if o.error.is_some() {
                continue;
            }
            let late_us = o.sent_offset_us as f64 - o.target_offset_us as f64;
            lateness.push(late_us / 1e3);
            if let Some(lat) = o.latency_us {
                answered.push((o.trace_offset_us / 1_000_000, (late_us + lat as f64) / 1e3));
            }
        }
    } else {
        let due = &phase.pulls.due;
        let warm_us = due.last().map_or(0, |&(_, us)| us) / 4;
        let sources = inputs::fast_sources(args.seed);
        let index = outcome_index(
            phase.pulls.pulled,
            queriers,
            |i| sources[(i % sources.len() as u64) as usize],
            due,
        );
        for (&(_, due_us), &k) in due.iter().zip(&index) {
            if due_us < warm_us {
                continue;
            }
            *due_count.entry(due_us / 1_000_000).or_default() += 1;
            // Answer time on the engine's epoch, taken just after the first
            // pull, so it can trail `due_us` only by that gap.
            if let Some(answer_us) = report
                .outcomes
                .get(k)
                .and_then(|o| Some(o.sent_offset_us + o.latency_us?))
            {
                let ms = answer_us.saturating_sub(due_us) as f64 / 1e3;
                answered.push((due_us / 1_000_000, ms));
            }
        }
    }
    lateness.sort_by(f64::total_cmp);
    let responses = Responses {
        answered,
        due: due_count,
    };
    (responses, lateness)
}

/// Per-second shares (%, ascending) of the queries due after warm-up that
/// were answered within [`ON_TIME_MS`] of being due; an unanswered query
/// is late.
fn on_time_by_second(r: &Responses) -> Vec<f64> {
    let mut on_time: std::collections::BTreeMap<u64, u64> = Default::default();
    for &(second, ms) in &r.answered {
        if ms <= ON_TIME_MS {
            *on_time.entry(second).or_default() += 1;
        }
    }
    let mut shares: Vec<f64> = r
        .due
        .iter()
        .map(|(second, &due)| pct(on_time.get(second).copied().unwrap_or(0) as f64, due as f64))
        .collect();
    shares.sort_by(f64::total_cmp);
    shares
}

/// The on-time share of the run's median second. Another tenant taking
/// the host's CPU delays the replay in bursts of a second or more: on a
/// shared 2-vCPU host the pooled share of `broot-timed` at 20k q/s read
/// 99.6% in one set of ten runs and spread 22% between the runs of
/// another. With busy-looping processes taking the CPU 37.5% of each run
/// at 10k q/s, the pooled share fell to 97.6–98.7% and the median second
/// read 98.7–99.98% (100% calm). The pooled share is the per-layer
/// `replay.on_time_pooled_pct`.
fn on_time_pct(r: &Responses) -> f64 {
    let shares = on_time_by_second(r);
    if shares.is_empty() {
        return f64::NAN;
    }
    // Mean of the two middle seconds when the count is even.
    let n = shares.len();
    (shares[(n - 1) / 2] + shares[n / 2]) / 2.0
}

/// The pooled on-time share over every query due after warm-up.
fn on_time_pooled_pct(r: &Responses) -> f64 {
    let on_time = r
        .answered
        .iter()
        .filter(|&&(_, ms)| ms <= ON_TIME_MS)
        .count();
    pct(on_time as f64, r.due.values().sum::<u64>() as f64)
}

/// All response times (ms), ascending.
fn pooled(response: &[(u64, f64)]) -> Vec<f64> {
    let mut all: Vec<f64> = response.iter().map(|&(_, ms)| ms).collect();
    all.sort_by(f64::total_cmp);
    all
}

/// The median response of the run's quiet seconds (the per-layer
/// `replay.response_p50_ms`): the lower quartile of the per-second medians. Another tenant taking the host's CPU only ever
/// adds latency, in bursts of seconds: on a shared 2-vCPU VM one
/// `tcp-timed` run's per-second medians went 51–63 µs, then 2,116 µs, then
/// 80–180 µs, while its neighbours stayed at 40–60 µs. The pooled median
/// follows such bursts (0.067–0.22 ms across five runs); the quiet
/// seconds show the replay path's own latency, unless a burst covers
/// most of the run (0.53 ms in one of nine runs), which is why response
/// time is a per-layer diagnostic and [`on_time_pct`] the end-to-end
/// metric.
fn quiet_median(response: &[(u64, f64)]) -> f64 {
    let mut seconds: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for &(second, ms) in response {
        seconds.entry(second).or_default().push(ms);
    }
    let mut medians: Vec<f64> = seconds
        .into_values()
        .map(|mut v| {
            v.sort_by(f64::total_cmp);
            grouped_median(&v, 1e-3)
        })
        .collect();
    medians.sort_by(f64::total_cmp);
    quantile(&medians, 0.25)
}

/// Position in `ReplayReport::outcomes` of each sampled pull. The engine
/// routes each source to a querier shard on first sight (`ReplayPlan`) and
/// reports the shards' outcomes one after another, each in pull order.
fn outcome_index(
    pulled: u64,
    queriers: usize,
    source_of: impl Fn(u64) -> IpAddr,
    sampled: &[(u64, u64)],
) -> Vec<usize> {
    let mut plan = ReplayPlan::new(1, queriers);
    let mut per_shard = vec![0usize; plan.querier_count()];
    let mut at: Vec<(usize, usize)> = Vec::with_capacity(sampled.len());
    let mut next = sampled.iter().map(|&(i, _)| i).peekable();
    for i in 0..pulled {
        let (_, _, shard) = plan.route(source_of(i));
        if next.peek() == Some(&i) {
            next.next();
            at.push((shard, per_shard[shard]));
        }
        per_shard[shard] += 1;
    }
    let offsets: Vec<usize> = per_shard
        .iter()
        .scan(0, |acc, &n| {
            let start = *acc;
            *acc += n;
            Some(start)
        })
        .collect();
    at.into_iter()
        .map(|(shard, k)| offsets[shard] + k)
        .collect()
}

/// Process CPU per answered query over the replay up to the moment its
/// input ran out, leaving out the Timed queriers' threads: their busy-wait
/// pacing keeps them on CPU whatever the per-query work, and whether the
/// other threads share their core or not moved the whole-process figure
/// by half between runs on a 2-vCPU host.
fn cpu_us_per_query(phase: &Phase) -> f64 {
    let (Some(end), Some(first)) = (phase.pulls.input_end, phase.pulls.first_pull) else {
        return f64::NAN;
    };
    let until_us = end.at.saturating_duration_since(first).as_micros() as u64;
    let answered = phase
        .report
        .outcomes
        .iter()
        .filter(|o| {
            o.latency_us
                .is_some_and(|l| o.sent_offset_us + l <= until_us)
        })
        .count();
    let cpu = end
        .cpu
        .saturating_sub(phase.cpu_start)
        .saturating_sub(end.spinner_cpu);
    cpu.as_secs_f64() * 1e6 / answered.max(1) as f64
}

/// The end-of-run accounting: every pulled record has exactly one fate.
/// Returns the number of queries unanswered at drain.
fn check_accounting(phase: &Phase) -> Result<u64, String> {
    let r = &phase.report;
    let attempted = phase.pulls.pulled;
    let outcomes = r.outcomes.len() as u64;
    let errored = r.outcomes.iter().filter(|o| o.error.is_some()).count() as u64;
    if outcomes != attempted {
        return Err(format!(
            "{attempted} records pulled but {outcomes} outcomes reported"
        ));
    }
    if errored != r.errors {
        return Err(format!(
            "{errored} errored outcomes but {} errors counted",
            r.errors
        ));
    }
    if r.sent + r.errors != attempted {
        return Err(format!(
            "sent {} + errors {} != attempted {attempted}",
            r.sent, r.errors
        ));
    }
    let settled = r.answered + r.gave_up;
    if settled > r.sent {
        return Err(format!(
            "answered {} + gave_up {} exceeds sent {}",
            r.answered, r.gave_up, r.sent
        ));
    }
    if phase.server.handled < r.answered {
        return Err(format!(
            "server handled {} < answered {}",
            phase.server.handled, r.answered
        ));
    }
    Ok(r.sent - settled)
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// The end-to-end metrics, from the untraced replay.
fn end_to_end(m: &mut Metrics, phase: &Phase, setup_s: f64, response: &Responses) {
    let r = &phase.report;
    let answered = r.answered as f64;
    m.add("setup_s", setup_s, "s");
    m.add(
        "answered_qps",
        answered / (r.send_duration_us as f64 / 1e6),
        "answers/s",
    );
    m.add("on_time_pct", on_time_pct(response), "%");
    m.add(
        "answered_pct",
        pct(answered, phase.pulls.pulled as f64),
        "%",
    );
    m.add("cpu_us_per_query", cpu_us_per_query(phase), "us");
    m.add("peak_rss_mb", phase.peak_rss as f64 / 1e6, "MB");
}

/// Whole-process CPU per answered query over the whole replay.
fn cpu_us_per_answer(phase: &Phase) -> f64 {
    phase.cpu.as_secs_f64() * 1e6 / (phase.report.answered as f64).max(1.0)
}

/// Server, engine and process counters of the untraced replay.
fn counters(m: &mut Metrics, phase: &Phase, server: &LiveServer, unanswered_at_drain: u64) {
    let r = &phase.report;
    let s = &phase.server;
    let answered = r.answered as f64;
    let handle = server.stats.handle_hist();
    let hq = |p: f64| handle.quantile(p).map_or(0.0, |v| v as f64);
    m.add(
        "server.pktcache_hit_ratio",
        s.hits as f64 / (s.hits + s.misses).max(1) as f64,
        "ratio",
    );
    m.add("server.pktcache_evictions", s.evictions as f64, "count");
    m.add("server.handle_us_p50", hq(0.5), "us");
    m.add("server.handle_us_p99", hq(0.99), "us");
    m.add(
        "server.rx_drop_pct",
        pct(r.sent.saturating_sub(s.handled) as f64, r.sent as f64),
        "%",
    );
    m.add(
        "server.return_loss_pct",
        pct(
            s.handled.saturating_sub(r.answered) as f64,
            s.handled as f64,
        ),
        "%",
    );
    m.add("server.tcp_connections", s.tcp_connections as f64, "count");
    m.add("server.send_failures", s.send_failures as f64, "count");

    let shard_sent: Vec<f64> = r.shards.iter().map(|s| s.sent as f64).collect();
    let shards = shard_sent.len().max(1) as f64;
    let mean_sent = shard_sent.iter().sum::<f64>() / shards;
    let depth = r.shards.iter().map(|s| s.depths.mean()).sum::<f64>() / shards;
    m.add(
        "replay.sent_qps",
        r.sent as f64 / (r.send_duration_us as f64 / 1e6),
        "queries/s",
    );
    m.add(
        "replay.postman_stalls",
        r.shards.iter().map(|s| s.postman_stalls).sum::<u64>() as f64,
        "count",
    );
    m.add("replay.queue_depth_mean", depth, "batches");
    m.add(
        "replay.shard_balance",
        shard_sent.iter().copied().fold(0.0, f64::max) / mean_sent.max(1.0),
        "ratio",
    );
    m.add(
        "replay.shards_idle",
        shard_sent.iter().filter(|&&x| x == 0.0).count() as f64,
        "count",
    );
    m.add("replay.timeouts", r.timeouts as f64, "count");
    m.add("replay.retries", r.retries as f64, "count");
    m.add("replay.gave_up", r.gave_up as f64, "count");
    m.add("replay.errors", r.errors as f64, "count");
    m.add("replay.reconnects", r.reconnects as f64, "count");
    m.add(
        "replay.unanswered_at_drain",
        unanswered_at_drain as f64,
        "count",
    );
    m.add(
        "replay.unanswered_pct",
        pct(
            phase.pulls.pulled as f64 - answered,
            phase.pulls.pulled as f64,
        ),
        "%",
    );
    m.add(
        "replay.useful_ratio",
        answered / (r.sent + r.retries).max(1) as f64,
        "ratio",
    );
    m.add("load.window_stalls", phase.window_stalls as f64, "count");

    m.add(
        "proc.threads_peak",
        phase.pulls.threads_peak as f64,
        "count",
    );
    m.add(
        "proc.rss_bytes_per_query",
        phase.peak_rss.saturating_sub(phase.rss_start) as f64 / phase.pulls.pulled.max(1) as f64,
        "B",
    );
    m.add("proc.cpu_us_per_query_all", cpu_us_per_answer(phase), "us");
    let spinner = phase
        .pulls
        .input_end
        .map_or(0.0, |e| e.spinner_cpu.as_secs_f64());
    m.add(
        "replay.spinner_cpu_pct",
        pct(spinner, phase.wall.as_secs_f64()),
        "%",
    );
    m.add(
        "proc.cpu_busy_pct",
        pct(phase.cpu.as_secs_f64(), phase.wall.as_secs_f64()),
        "%",
    );
}

/// Span-derived stage times, pull costs and tracing overhead from the
/// traced replay, against the untraced one.
fn traced_metrics(
    m: &mut Metrics,
    args: &Args,
    queriers: usize,
    untraced: &Phase,
    response: &Responses,
    traced: &Phase,
) -> Result<(), String> {
    let (traced_response, _) = response_times(args, traced, queriers);
    let cpu = cpu_us_per_query(untraced);
    m.add(
        "obs.overhead_pct",
        pct(cpu_us_per_query(traced) - cpu, cpu),
        "%",
    );
    let p50 = quiet_median(&response.answered);
    m.add(
        "obs.overhead_response_p50_pct",
        pct(quiet_median(&traced_response.answered) - p50, p50),
        "%",
    );
    let pulled = traced.pulls.pulled.max(1) as f64;
    m.add("trace.read_ns", traced.pulls.read_ns as f64 / pulled, "ns");
    m.add(
        "trace.read_allocs",
        traced.pulls.read_allocs as f64 / pulled,
        "allocs",
    );
    let spans = traced.spans.as_ref().ok_or("traced phase has no spans")?;
    let stages = StageBreakdown::from_events(&spans.events());
    let sq = |h: &ldp_metrics::LogHistogram, p: f64| h.quantile(p).map_or(0.0, |v| v as f64);
    m.add(
        "replay.batch_wait_us_p50",
        sq(&stages.batch_wait, 0.5),
        "us",
    );
    m.add(
        "replay.queue_wait_us_p50",
        sq(&stages.queue_wait, 0.5),
        "us",
    );
    m.add("replay.send_lag_us_p50", sq(&stages.send_lag, 0.5), "us");
    m.add("replay.send_lag_us_p99", sq(&stages.send_lag, 0.99), "us");
    m.add("replay.rtt_us_p50", sq(&stages.rtt, 0.5), "us");
    m.add("replay.rtt_us_p99", sq(&stages.rtt, 0.99), "us");
    m.add("obs.spans_queries", stages.queries as f64, "count");
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let timed = args.workload.is_timed();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // One distributor and max(1, nproc − 1) queriers: the server under
    // test keeps a core of its own.
    let queriers = nproc.saturating_sub(1).max(1);
    let work = WorkDir::new(args)?;
    let prepared = inputs::prepare(args.workload, args.seed, args.seconds, nproc, &work.0)?;
    let sample = head(args, &prepared, LAYER_SAMPLE)?;
    let step = (sample.len() / PREFLIGHT_SAMPLE).max(1);
    let preflight_sample: Vec<TraceRecord> = sample
        .iter()
        .step_by(step)
        .take(PREFLIGHT_SAMPLE)
        .cloned()
        .collect();
    println!(
        "workload {} seed {} seconds {} nproc {nproc} queriers {queriers}: inputs prepared in {:.2} s",
        args.workload.name(),
        args.seed,
        args.seconds,
        started.elapsed().as_secs_f64()
    );

    // Set-up: zone master parse + engine, repeated for a median; then one
    // server spawn; the engine's own start is measured inside the replay.
    let mut loads = Vec::with_capacity(SETUP_REPS);
    let mut engine: Option<Arc<AuthEngine>> = None;
    for _ in 0..SETUP_REPS {
        drop(engine.take());
        let (e, took) = live::load_engine(&prepared.zone_dir)?;
        loads.push(took.as_secs_f64());
        engine = Some(e);
    }
    let engine = engine.ok_or("no set-up ran")?;
    let rt = tokio::runtime::Runtime::new().map_err(|e| e.to_string())?;
    let (server, bind_retries, spawn) = live::spawn_server(&rt, &engine)?;
    println!("setup.bind_retries {bind_retries}");

    // Correctness problems fail the run (`"correct": false`) but never
    // stop it: the run still reports what it measured.
    let mut problems: Vec<String> = Vec::new();
    match live::preflight(&server, &engine, &preflight_sample) {
        Ok(checked) => println!(
            "preflight: {checked} live answers equal AuthEngine::respond (udp miss, udp pktcache hit, tcp)"
        ),
        Err(e) => problems.push(e),
    }
    let untraced = Instrument {
        traced: false,
        sample_threads: args.trace,
    };
    let phase = replay_phase(args, &prepared, &rt, &server, queriers, untraced)?;
    let unanswered_at_drain = check_accounting(&phase).unwrap_or_else(|e| {
        problems.push(e);
        0
    });
    let r = &phase.report;
    if let Some(idle) = r.shards.iter().find(|s| s.sent == 0) {
        problems.push(format!("querier shard {} sent nothing", idle.shard));
    }
    let attempted = phase.pulls.pulled;
    // Timed workloads fail a query that went unanswered; fast-hit counts
    // only replay errors (bind/send), as its load shape is the engine's.
    let failed = if timed {
        attempted - r.answered
    } else {
        r.errors
    };
    let (response, lateness) = response_times(args, &phase, queriers);
    println!(
        "on-time share by second (%, ascending): {}",
        on_time_by_second(&response)
            .iter()
            .map(|v| format!("{v:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "replay: {:.2} s wall, {:.2} s cpu ({:.2} s in querier busy-wait threads), rss {:.1} MB at start, peak {:.1} MB",
        phase.wall.as_secs_f64(),
        phase.cpu.as_secs_f64(),
        phase.pulls.input_end.map_or(0.0, |e| e.spinner_cpu.as_secs_f64()),
        phase.rss_start as f64 / 1e6,
        phase.peak_rss as f64 / 1e6
    );
    println!(
        "attempted {attempted} sent {} answered {} gave_up {} errors {} unanswered_at_drain {unanswered_at_drain}; server handled {}",
        r.sent, r.answered, r.gave_up, r.errors, phase.server.handled
    );

    let mut m = Metrics::default();
    if !args.trace {
        let setup_s = median(loads) + spawn.as_secs_f64() + phase.engine_start.as_secs_f64();
        end_to_end(&mut m, &phase, setup_s, &response);
    } else {
        m.add("setup.bind_retries", bind_retries as f64, "count");
        counters(&mut m, &phase, &server, unanswered_at_drain);
        let late = |q: f64| {
            if lateness.is_empty() {
                0.0
            } else {
                quantile(&lateness, q)
            }
        };
        m.add(
            "replay.on_time_pooled_pct",
            on_time_pooled_pct(&response),
            "%",
        );
        m.add("replay.lateness_p50_ms", late(0.5), "ms");
        m.add("replay.lateness_p99_ms", late(0.99), "ms");
        let all = pooled(&response.answered);
        m.add(
            "replay.response_p50_ms",
            quiet_median(&response.answered),
            "ms",
        );
        m.add(
            "replay.response_p50_pooled_ms",
            grouped_median(&all, 1e-3),
            "ms",
        );
        m.add("replay.response_p99_ms", quantile(&all, 0.99), "ms");

        // Traced phase: the same input against a fresh server on the same
        // engine, spans on every query and a telemetry registry attached.
        let (traced_server, _, _) = live::spawn_server(&rt, &engine)?;
        let traced = Instrument {
            traced: true,
            sample_threads: false,
        };
        let traced = replay_phase(args, &prepared, &rt, &traced_server, queriers, traced)?;
        if let Err(e) = check_accounting(&traced) {
            problems.push(format!("traced phase: {e}"));
        }
        traced_metrics(&mut m, args, queriers, &phase, &response, &traced)?;
        layers::measure(&sample, &engine, queriers, timed, &mut m)?;
    }
    let bad = m.non_finite();
    if !bad.is_empty() {
        return Err(format!(
            "metrics not measurable this run: {}",
            bad.join(", ")
        ));
    }
    for (name, value, unit) in m.iter() {
        println!("{name:<32} {value:>14.4} {unit}");
    }
    println!("run took {:.2} s", started.elapsed().as_secs_f64());
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    println!(
        "{}",
        report::result_line(problems.is_empty(), attempted, failed, &m)
    );
    Ok(())
}
