//! Byte-identity guard for the wire encoder and the answer engine.
//!
//! Every message below is encoded with `Message::to_bytes` and folded into
//! one FNV-1a digest per corpus. The digests were recorded from the
//! label-vector `Name` and the map-based compression table; any change to
//! name representation, compression choices or response construction that
//! moves a single output byte changes a digest.
//!
//! Corpora:
//! - the wire fuzz round-trip suite's cases (byte mutations of a realistic
//!   response, random structured messages, compression-heavy messages and
//!   the message crossing the 0x4000 pointer limit), regenerated here with
//!   the same generator and seeds, plus messages that write names on both
//!   sides of that limit and then write them again;
//! - a pcap fixture: B-Root-like queries and their answers, over UDP and
//!   TCP, written with `write_pcap`, read back with `parse_pcap` and
//!   re-encoded;
//! - `AuthEngine::respond` over the first 5,000 `BRootConfig` queries
//!   against `signed_root_zone` (referrals, DS answers, NXDOMAIN with NSEC
//!   denial, DO and non-DO, EDNS and plain), over UDP and over a stream.

use std::net::Ipv4Addr;
use std::sync::Arc;

use ldp_server::auth::AuthEngine;
use ldp_trace::pcap::{parse_pcap, write_pcap};
use ldp_trace::{Direction, Protocol, TraceRecord};
use ldp_wire::edns::{Edns, EdnsOption};
use ldp_wire::{Message, Name, RData, Record, RrType, SoaData};
use ldp_workload::zones::signed_root_zone;
use ldp_workload::BRootConfig;
use ldp_zone::dnssec::SigningConfig;
use ldp_zone::ZoneSet;

/// FNV-1a over a sequence of length-prefixed byte strings.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one encode result in; an error folds in as a fixed marker.
    fn message(&mut self, m: &Message) {
        match m.to_bytes() {
            Ok(b) => {
                self.bytes(&(b.len() as u32).to_be_bytes());
                self.bytes(&b);
            }
            Err(_) => self.bytes(b"\xffencode-error"),
        }
    }
}

/// splitmix64, as in the wire fuzz suite.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn rand_name(r: &mut Rng) -> Name {
    loop {
        let n = r.below(5) as usize;
        let labels: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                let len = 1 + r.below(12) as usize;
                (0..len).map(|_| r.next() as u8).collect()
            })
            .collect();
        if let Ok(name) = Name::from_labels(labels) {
            return name;
        }
    }
}

fn rand_rdata(r: &mut Rng) -> RData {
    match r.below(13) {
        0 => RData::A(Ipv4Addr::from(r.next() as u32)),
        1 => RData::Aaaa(std::net::Ipv6Addr::from(
            ((r.next() as u128) << 64) | r.next() as u128,
        )),
        2 => RData::Ns(rand_name(r)),
        3 => RData::Cname(rand_name(r)),
        4 => RData::Ptr(rand_name(r)),
        5 => RData::Soa(SoaData {
            mname: rand_name(r),
            rname: rand_name(r),
            serial: r.next() as u32,
            refresh: r.next() as u32,
            retry: r.next() as u32,
            expire: r.next() as u32,
            minimum: r.next() as u32,
        }),
        6 => RData::Mx {
            preference: r.next() as u16,
            exchange: rand_name(r),
        },
        7 => RData::Txt(
            (0..1 + r.below(3))
                .map(|_| (0..r.below(40)).map(|_| r.next() as u8).collect())
                .collect(),
        ),
        8 => RData::Srv {
            priority: r.next() as u16,
            weight: r.next() as u16,
            port: r.next() as u16,
            target: rand_name(r),
        },
        9 => RData::Dnskey {
            flags: r.next() as u16,
            protocol: 3,
            algorithm: 8,
            public_key: (0..r.below(64)).map(|_| r.next() as u8).collect(),
        },
        10 => RData::Rrsig {
            type_covered: RrType::from_code(r.next() as u16),
            algorithm: 8,
            labels: r.next() as u8,
            original_ttl: r.next() as u32,
            expiration: r.next() as u32,
            inception: r.next() as u32,
            key_tag: r.next() as u16,
            signer: rand_name(r),
            signature: (0..r.below(64)).map(|_| r.next() as u8).collect(),
        },
        11 => RData::Ds {
            key_tag: r.next() as u16,
            algorithm: 8,
            digest_type: 2,
            digest: (0..r.below(40)).map(|_| r.next() as u8).collect(),
        },
        _ => RData::Nsec {
            next: rand_name(r),
            type_bitmaps: (0..r.below(16)).map(|_| r.next() as u8).collect(),
        },
    }
}

fn base_message() -> Vec<u8> {
    let n = |s: &str| Name::parse(s).unwrap();
    let mut m = Message::query(0x1234, n("www.example.com"), RrType::A);
    m.answers.push(Record::new(
        n("www.example.com"),
        300,
        RData::A("192.0.2.1".parse().unwrap()),
    ));
    m.authorities.push(Record::new(
        n("example.com"),
        300,
        RData::Soa(SoaData {
            mname: n("ns1.example.com"),
            rname: n("host.example.com"),
            serial: 1,
            refresh: 2,
            retry: 3,
            expire: 4,
            minimum: 5,
        }),
    ));
    m.additionals.push(Record::new(
        n("ns1.example.com"),
        60,
        RData::Txt(vec![b"hello world".to_vec()]),
    ));
    m.edns = Some(Edns::default());
    m.to_bytes().unwrap()
}

fn fuzz_mutations_digest() -> u64 {
    let base = base_message();
    let mut d = Digest::new();
    d.bytes(&base);
    let mut rng = Rng(0xDEADBEEF);
    for _ in 0..50_000 {
        let mut bytes = base.clone();
        for _ in 0..1 + (rng.next() % 4) as usize {
            let i = (rng.next() as usize) % bytes.len();
            bytes[i] = rng.next() as u8;
        }
        if let Ok(m) = Message::from_bytes(&bytes) {
            d.message(&m);
        }
        // Keep the generator in step with the fuzz suite's sweep draw.
        let _ = rng.next();
    }
    d.0
}

fn fuzz_structured_digest() -> u64 {
    let mut r = Rng(42);
    let mut d = Digest::new();
    for _ in 0..10_000u32 {
        let mut m = Message::query(
            r.next() as u16,
            rand_name(&mut r),
            RrType::from_code(r.next() as u16),
        );
        for _ in 0..r.below(4) {
            m.answers.push(Record::new(
                rand_name(&mut r),
                r.next() as u32,
                rand_rdata(&mut r),
            ));
        }
        for _ in 0..r.below(3) {
            m.authorities.push(Record::new(
                rand_name(&mut r),
                r.next() as u32,
                rand_rdata(&mut r),
            ));
        }
        for _ in 0..r.below(3) {
            m.additionals.push(Record::new(
                rand_name(&mut r),
                r.next() as u32,
                rand_rdata(&mut r),
            ));
        }
        if r.below(2) == 0 {
            m.edns = Some(Edns {
                udp_payload_size: r.next() as u16,
                extended_rcode: r.next() as u8,
                version: 0,
                dnssec_ok: r.below(2) == 0,
                z_flags: (r.next() as u16) & 0x7FFF,
                options: (0..r.below(3))
                    .map(|_| EdnsOption {
                        code: r.next() as u16,
                        data: (0..r.below(20)).map(|_| r.next() as u8).collect(),
                    })
                    .collect(),
            });
        }
        d.message(&m);
        let n = rand_name(&mut r);
        d.bytes(n.to_string().as_bytes());
    }
    d.0
}

fn fuzz_compression_digest() -> u64 {
    let mut names = Vec::new();
    for base in [
        "example.com",
        "sub.example.com",
        "a.b.sub.example.com",
        "other.net",
        "deep.other.net",
    ] {
        names.push(Name::parse(base).unwrap());
    }
    for i in 0..20 {
        names.push(Name::parse(&format!("h{i}.example.com")).unwrap());
        names.push(Name::parse(&format!("x{i}.y{i}.other.net")).unwrap());
    }
    let mut r = Rng(7);
    let mut d = Digest::new();
    for _ in 0..2_000u32 {
        let pick = |r: &mut Rng| names[r.below(names.len() as u64) as usize].clone();
        let mut m = Message::query(r.next() as u16, pick(&mut r), RrType::A);
        for _ in 0..2 + r.below(30) {
            let rd = match r.below(4) {
                0 => RData::Ns(pick(&mut r)),
                1 => RData::Cname(pick(&mut r)),
                2 => RData::Mx {
                    preference: r.next() as u16,
                    exchange: pick(&mut r),
                },
                _ => RData::A(Ipv4Addr::from(r.next() as u32)),
            };
            m.answers
                .push(Record::new(pick(&mut r), r.next() as u32, rd));
        }
        d.message(&m);
    }

    // The message crossing the 0x4000 pointer-offset limit.
    let mut m = Message::query(1, Name::parse("start.example.com").unwrap(), RrType::A);
    for i in 0..80 {
        m.answers.push(Record::new(
            Name::parse(&format!("pad{i}.example.com")).unwrap(),
            60,
            RData::Txt(vec![vec![b'x'; 250]]),
        ));
    }
    for i in 0..40 {
        m.answers.push(Record::new(
            Name::parse(&format!("n{i}.late.zone.test")).unwrap(),
            60,
            RData::Ns(Name::parse(&format!("ns{i}.late.zone.test")).unwrap()),
        ));
    }
    d.message(&m);
    d.0
}

/// Messages whose names are first written on either side of the 0x4000
/// pointer limit and then written again: which suffixes the writer may
/// point back to decides every later name's bytes.
fn pointer_window_digest() -> u64 {
    let mut d = Digest::new();
    for pad in 52..68 {
        let mut m = Message::query(pad, Name::parse("start.example.com").unwrap(), RrType::A);
        for i in 0..pad {
            m.answers.push(Record::new(
                Name::parse(&format!("pad{i}.example.com")).unwrap(),
                60,
                RData::Txt(vec![vec![b'x'; 250]]),
            ));
        }
        for _round in 0..2 {
            for i in 0..40 {
                m.answers.push(Record::new(
                    Name::parse(&format!("n{i}.late.zone.test")).unwrap(),
                    60,
                    RData::Ns(Name::parse(&format!("ns{i}.n{i}.late.zone.test")).unwrap()),
                ));
            }
        }
        d.message(&m);
    }
    d.0
}

fn engine() -> AuthEngine {
    let mut set = ZoneSet::new();
    set.insert(signed_root_zone(40, SigningConfig::zsk2048()));
    AuthEngine::with_zones(Arc::new(set))
}

fn broot_queries() -> Vec<TraceRecord> {
    let mut records = BRootConfig {
        duration_s: 10.0,
        mean_rate_qps: 1_000.0,
        ..BRootConfig::default()
    }
    .generate();
    records.truncate(5_000);
    assert_eq!(records.len(), 5_000, "trace long enough for the corpus");
    records
}

/// Queries the trace never asks but the root zone answers with data:
/// DS at a cut, the apex NS, SOA and DNSKEY sets, glue owners, NODATA.
/// Each goes out without EDNS, with plain EDNS and with DO.
fn apex_queries() -> Vec<Message> {
    let mut out = Vec::new();
    for (name, qtype) in [
        ("com", RrType::Ds),
        ("org", RrType::Ds),
        (".", RrType::Ns),
        (".", RrType::Soa),
        (".", RrType::Dnskey),
        (".", RrType::Txt),
        ("a.root-servers.net", RrType::A),
        ("m.root-servers.net", RrType::Aaaa),
    ] {
        for edns in [None, Some(Edns::default()), Some(Edns::with_do())] {
            let mut q = Message::query(7, Name::parse(name).unwrap(), qtype);
            q.edns = edns;
            out.push(q);
        }
    }
    out
}

fn respond_digest(engine: &AuthEngine, queries: &[TraceRecord]) -> u64 {
    let mut d = Digest::new();
    let client = std::net::IpAddr::V4(Ipv4Addr::LOCALHOST);
    let extra = apex_queries();
    let all = queries
        .iter()
        .map(|r| (r.src, &r.message))
        .chain(extra.iter().map(|q| (client, q)));
    for (src, query) in all {
        for over_stream in [false, true] {
            d.message(&engine.respond(src, query, over_stream));
        }
    }
    d.0
}

fn pcap_digest(engine: &AuthEngine, queries: &[TraceRecord]) -> u64 {
    let mut fixture = Vec::new();
    for (i, q) in queries.iter().take(1_000).enumerate() {
        let mut q = q.clone();
        if i % 7 == 0 {
            q.protocol = Protocol::Tcp;
        }
        let resp = TraceRecord {
            time_us: q.time_us + 250,
            src: q.dst,
            src_port: q.dst_port,
            dst: q.src,
            dst_port: q.src_port,
            protocol: q.protocol,
            direction: Direction::Response,
            message: engine.respond(q.src, &q.message, q.protocol != Protocol::Udp),
        };
        fixture.push(q);
        fixture.push(resp);
    }
    let mut pcap = Vec::new();
    write_pcap(&mut pcap, &fixture).unwrap();
    let (back, _) = parse_pcap(&pcap).unwrap();
    assert_eq!(back.len(), fixture.len());
    let mut d = Digest::new();
    for rec in &back {
        d.message(&rec.message);
    }
    d.0
}

#[test]
fn encoded_bytes_match_the_recorded_digests() {
    let engine = engine();
    let queries = broot_queries();
    let got = [
        ("fuzz byte mutations", fuzz_mutations_digest()),
        ("fuzz structured", fuzz_structured_digest()),
        ("fuzz compression", fuzz_compression_digest()),
        ("pointer window", pointer_window_digest()),
        ("pcap fixture", pcap_digest(&engine, &queries)),
        ("respond broot 5k", respond_digest(&engine, &queries)),
    ];
    let want: [u64; 6] = [
        0xd58d_7e55_428d_e28f,
        0x08fe_b35f_2dfc_b1f7,
        0x92ea_fa49_d012_a1e9,
        0x18d2_d608_391f_bd43,
        0x6d7b_161d_6b22_2510,
        0xaa1e_bfa3_3c70_206f,
    ];
    for (what, got) in &got {
        eprintln!("{what}: {got:#018x}");
    }
    for ((what, got), want) in got.iter().zip(want) {
        assert_eq!(*got, want, "{what}: encoded bytes moved");
    }
}

#[test]
fn respond_corpus_covers_every_answer_shape() {
    use ldp_wire::Rcode;
    let engine = engine();
    let queries = broot_queries();
    let (mut referral, mut nxdomain, mut answer, mut truncated) = (0, 0, 0, 0);
    let (mut do_bit, mut plain) = (0, 0);
    let client = std::net::IpAddr::V4(Ipv4Addr::LOCALHOST);
    let extra = apex_queries();
    let all = queries
        .iter()
        .map(|r| (r.src, &r.message))
        .chain(extra.iter().map(|q| (client, q)));
    for (src, query) in all {
        let r = engine.respond(src, query, false);
        if r.header.truncated {
            truncated += 1;
        } else if r.header.rcode == Rcode::NxDomain {
            nxdomain += 1;
        } else if !r.header.authoritative {
            referral += 1;
        } else {
            answer += 1;
        }
        if query.dnssec_ok() {
            do_bit += 1;
        } else {
            plain += 1;
        }
    }
    assert!(referral > 0 && nxdomain > 0 && answer > 0 && truncated > 0);
    assert!(do_bit > 0 && plain > 0);
}
