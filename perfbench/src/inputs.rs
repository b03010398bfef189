//! Workload definitions and input preparation.
//!
//! Everything here runs before the measured phase: the zone directory and
//! (for the timed workloads) the `.ldps` trace are written to disk, and the
//! measured phase reads them back through the same paths a user takes
//! (`ldplayer::cli::load_zone_dir`, `StreamReader`). The `fast-hit` input
//! is generated lazily during the replay, so it never sits in memory.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::net::{IpAddr, Ipv4Addr};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ldp_trace::stream::{StreamReader, StreamWriter};
use ldp_trace::{TraceError, TraceRecord};
use ldp_wire::{Name, RrType};
use ldp_workload::zones::{signed_root_zone, wildcard_example_zone};
use ldp_workload::BRootConfig;
use ldp_zone::dnssec::SigningConfig;

/// The three workloads; names are fixed because later changes cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §4.3 generator, as fast as possible: every answer a pktcache hit.
    FastHit,
    /// B-Root-like trace at trace timing: the server miss path.
    BrootTimed,
    /// The same trace, all TCP over a few long-lived connections.
    TcpTimed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fast-hit" => Some(Workload::FastHit),
            "broot-timed" => Some(Workload::BrootTimed),
            "tcp-timed" => Some(Workload::TcpTimed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FastHit => "fast-hit",
            Workload::BrootTimed => "broot-timed",
            Workload::TcpTimed => "tcp-timed",
        }
    }

    pub fn is_timed(self) -> bool {
        !matches!(self, Workload::FastHit)
    }
}

/// Trace rate of the timed workloads. On a 2-vCPU host 20k q/s was under
/// the knee when the host was calm (at 40k q/s response p99 ranged
/// 4.7–41 ms between identical runs), but when other tenants took the CPU
/// in bursts the server fell behind: 0.2% of 4M queries in one set of ten
/// runs went unanswered, and under a 75%-duty burst load 2.6% gave up and
/// 38% were on time. At 10k q/s the same burst load left every query
/// answered and 94% on time.
pub const TIMED_RATE_QPS: f64 = 10_000.0;

/// Zipf client population of the B-Root-like trace.
pub const BROOT_CLIENTS: usize = 200_000;

/// Invented TLDs added to `COMMON_TLDS` so the root zone has real-root
/// size (about 1,450 delegations).
pub const EXTRA_TLDS: usize = 1_430;

/// Distinct sources of the `fast-hit` generator.
pub const FAST_SOURCES: usize = 64;

/// Files the measured phase reads.
pub struct Prepared {
    pub zone_dir: PathBuf,
    /// `.ldps` trace for the timed workloads.
    pub trace: Option<PathBuf>,
}

/// SplitMix64: a tiny seeded generator for the few choices this crate
/// makes itself (the trace generator has its own seeded RNG).
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Writes the zone directory every workload serves: a signed root zone at
/// real-root size (ZSK 2048) and the wildcard `example.com` zone.
fn write_zones(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let root = signed_root_zone(EXTRA_TLDS, SigningConfig::zsk2048());
    let example = wildcard_example_zone();
    for (file, zone) in [("root.zone", &root), ("example_com.zone", &example)] {
        std::fs::write(dir.join(file), ldp_zone::master::serialize_zone(zone))
            .map_err(|e| format!("{file}: {e}"))?;
    }
    Ok(())
}

/// The B-Root-like trace at a flat `TIMED_RATE_QPS` for `seconds`; `tcp-timed`
/// moves every query to TCP and folds the sources onto `tcp_sources`
/// addresses (one long-lived connection each).
pub fn timed_trace(
    workload: Workload,
    seed: u64,
    seconds: u64,
    tcp_sources: usize,
) -> Vec<TraceRecord> {
    let config = BRootConfig {
        duration_s: seconds as f64,
        mean_rate_qps: TIMED_RATE_QPS,
        clients: BROOT_CLIENTS,
        rate_swing: 0.0,
        seed,
        ..BRootConfig::default()
    };
    let mut records = config.generate();
    if workload == Workload::TcpTimed {
        ldp_trace::mutate::all_tcp(seed).apply_all(&mut records);
        for rec in &mut records {
            let rank = match rec.src {
                IpAddr::V4(a) => u32::from(a) as usize,
                IpAddr::V6(_) => 0,
            };
            rec.src = ldp_workload::names::client_addr(rank % tcp_sources.max(1));
        }
    }
    records
}

/// Writes the workload's input files under `dir`.
pub fn prepare(
    workload: Workload,
    seed: u64,
    seconds: u64,
    tcp_sources: usize,
    dir: &Path,
) -> Result<Prepared, String> {
    let zone_dir = dir.join("zones");
    write_zones(&zone_dir)?;
    let trace = if workload.is_timed() {
        let path = dir.join("trace.ldps");
        let records = timed_trace(workload, seed, seconds, tcp_sources);
        let file = File::create(&path).map_err(|e| e.to_string())?;
        let mut writer = StreamWriter::new(BufWriter::new(file)).map_err(|e| e.to_string())?;
        for rec in &records {
            writer.write(rec).map_err(|e| e.to_string())?;
        }
        writer
            .finish()
            .map_err(|e| e.to_string())?
            .flush()
            .map_err(|e| e.to_string())?;
        let sources: std::collections::HashSet<IpAddr> = records.iter().map(|r| r.src).collect();
        let tcp_sources: std::collections::HashSet<IpAddr> = records
            .iter()
            .filter(|r| r.protocol != ldp_trace::Protocol::Udp)
            .map(|r| r.src)
            .collect();
        println!(
            "trace: {} records from {} sources ({} of them send TCP)",
            records.len(),
            sources.len(),
            tcp_sources.len()
        );
        Some(path)
    } else {
        None
    };
    Ok(Prepared { zone_dir, trace })
}

/// Opens the prepared trace for streaming, as `ldplayer replay --stream`
/// does.
pub fn open_trace(path: &Path) -> Result<StreamReader<BufReader<File>>, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    StreamReader::new(BufReader::new(file)).map_err(|e| e.to_string())
}

/// The `fast-hit` sources: `FAST_SOURCES` distinct addresses in 10/8
/// drawn from the seed.
pub fn fast_sources(seed: u64) -> Vec<IpAddr> {
    let mut state = seed;
    let mut out: Vec<IpAddr> = Vec::with_capacity(FAST_SOURCES);
    while out.len() < FAST_SOURCES {
        let r = splitmix(&mut state) as u32;
        let ip = IpAddr::V4(Ipv4Addr::new(10, (r >> 16) as u8, (r >> 8) as u8, r as u8));
        if !out.contains(&ip) {
            out.push(ip);
        }
    }
    out
}

/// Records per engine batch (`LiveReplay`'s default `batch_size`).
const ENGINE_BATCH: u64 = 256;

/// Outstanding-query cap of the `fast-hit` load: two engine batches (the
/// Fast-mode batcher flushes only full batches, so the cap must exceed
/// one). As with dnsperf's `-q`, the load runs as fast as the system
/// answers and never overruns it.
pub const FAST_MAX_OUTSTANDING: u64 = 2 * ENGINE_BATCH;

/// With no answer for this long, the window is widened by one batch so a
/// lost answer (retries are off) can never stall the load for good; each
/// widening is counted.
const WINDOW_STALL: Duration = Duration::from_millis(100);

/// Closed-loop gate for the `fast-hit` generator: the engine's own live
/// per-shard answered counters (telemetry registry) bound how far pulls
/// may run ahead of answers.
pub struct Window {
    answered: Vec<ldp_telemetry::Counter>,
    max_outstanding: u64,
    /// Window widenings after a stall (each one batch).
    stalls: Arc<AtomicU64>,
}

impl Window {
    /// Resolves the answered counters the engine's `queriers` shards will
    /// bump once `registry` is attached to the replay.
    pub fn new(
        registry: &ldp_telemetry::Registry,
        queriers: usize,
        stalls: Arc<AtomicU64>,
    ) -> Window {
        let answered = (0..queriers)
            .map(|q| {
                registry.counter_with(
                    "ldp_replay_answered_total",
                    "Responses matched to an in-flight query",
                    &[("shard", &q.to_string())],
                )
            })
            .collect();
        Window {
            answered,
            max_outstanding: FAST_MAX_OUTSTANDING,
            stalls,
        }
    }

    fn answered(&self) -> u64 {
        self.answered.iter().map(ldp_telemetry::Counter::get).sum()
    }

    /// Blocks until fewer than the cap of `pulled` records are unanswered.
    pub fn admit(&mut self, pulled: u64) {
        let mut answered = self.answered();
        let mut since = Instant::now();
        while pulled >= answered + self.max_outstanding {
            std::thread::sleep(Duration::from_micros(20));
            let now = self.answered();
            if now != answered {
                answered = now;
                since = Instant::now();
            } else if since.elapsed() >= WINDOW_STALL {
                self.max_outstanding += ENGINE_BATCH;
                self.stalls.fetch_add(1, Ordering::Relaxed);
                since = Instant::now();
            }
        }
    }
}

/// The §4.3 generator: identical `www.example.com A` queries round-robin
/// over the seeded sources, yielded lazily until `budget` has passed since
/// the first pull (or forever when `budget` is `None`).
pub struct FastHitQueries {
    sources: Vec<IpAddr>,
    name: Name,
    budget: Option<Duration>,
    started: Option<Instant>,
    i: u64,
}

impl FastHitQueries {
    pub fn new(seed: u64, budget: Option<Duration>) -> FastHitQueries {
        FastHitQueries {
            sources: fast_sources(seed),
            name: Name::parse("www.example.com").expect("static name parses"),
            budget,
            started: None,
            i: 0,
        }
    }
}

impl Iterator for FastHitQueries {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        let started = *self.started.get_or_insert_with(Instant::now);
        if let Some(budget) = self.budget {
            if self.i.is_multiple_of(1024) && started.elapsed() >= budget {
                return None;
            }
        }
        let i = self.i;
        self.i += 1;
        let src = self.sources[(i % self.sources.len() as u64) as usize];
        Some(Ok(TraceRecord::udp_query(
            0, // Fast mode ignores trace time
            src,
            (1024 + i % 60_000) as u16,
            self.name.clone(),
            RrType::A,
        )))
    }
}
