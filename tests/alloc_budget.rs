//! Allocation budget of the server miss path.
//!
//! This binary installs a counting global allocator and counts what one
//! query costs from its wire bytes to the response's: decode, then
//! `AuthEngine::respond`, then `Message::encode_into` into a warm buffer,
//! and the same through `AuthEngine::respond_into`, which the live server
//! uses. Both must stay within `BUDGET` for a signed DO referral and for a
//! signed NXDOMAIN.

use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

use ldp_bench::alloc::{thread_allocs, CountingAlloc};
use ldp_server::auth::AuthEngine;
use ldp_wire::{Edns, Message, Name, RData, Rcode, Record, RrType};
use ldp_zone::dnssec::{sign_zone, SigningConfig};
use ldp_zone::{Zone, ZoneSet};

/// Most allocations one miss may make.
const BUDGET: u64 = 16;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn count<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = thread_allocs();
    let out = f();
    (thread_allocs() - before, out)
}

fn n(s: &str) -> Name {
    Name::parse(s).unwrap()
}

/// A signed root zone shaped like the real one: 13 root servers with
/// glue, and TLD delegations with two name servers, glue and DS.
fn engine() -> AuthEngine {
    let mut root = Zone::with_fake_soa(Name::root());
    for i in 0..13u8 {
        let ns = n(&format!("{}.root-servers.net", (b'a' + i) as char));
        root.add(Record::new(Name::root(), 518400, RData::Ns(ns.clone())))
            .unwrap();
        root.add(Record::new(
            ns,
            518400,
            RData::A(Ipv4Addr::new(198, 41, i, 4)),
        ))
        .unwrap();
    }
    for (idx, tld) in ["com", "net", "org", "de", "uk"].iter().enumerate() {
        for k in 0..2u8 {
            let ns = n(&format!("ns{k}.{tld}-servers.net"));
            root.add(Record::new(n(tld), 172_800, RData::Ns(ns.clone())))
                .unwrap();
            root.add(Record::new(
                ns,
                172_800,
                RData::A(Ipv4Addr::new(192, 10, idx as u8, 10 + k)),
            ))
            .unwrap();
        }
        root.add(Record::new(
            n(tld),
            86_400,
            RData::Ds {
                key_tag: idx as u16,
                algorithm: 8,
                digest_type: 2,
                digest: vec![0xD5; 32],
            },
        ))
        .unwrap();
    }
    sign_zone(&mut root, SigningConfig::zsk2048());
    let mut set = ZoneSet::new();
    set.insert(root);
    AuthEngine::with_zones(Arc::new(set))
}

fn do_query(name: &str) -> Vec<u8> {
    let mut q = Message::query(0x1234, n(name), RrType::A);
    q.edns = Some(Edns::with_do());
    q.to_bytes().unwrap()
}

/// Allocations of one decode → respond → encode_into into `out`, less
/// those of the round-trip check that debug builds run inside
/// `encode_into` (a full decode of the output, not part of serving).
fn miss_via_respond(engine: &AuthEngine, wire: &[u8], out: &mut Vec<u8>) -> (u64, Message) {
    let client = IpAddr::V4(Ipv4Addr::LOCALHOST);
    out.clear();
    let (made, resp) = count(|| {
        let query = Message::from_bytes(wire).unwrap();
        let resp = engine.respond(client, &query, false);
        resp.encode_into(out).unwrap();
        resp
    });
    (made - debug_check_allocs(out), resp)
}

/// The same through `respond_into`, the live server's single encode.
fn miss_via_respond_into(engine: &AuthEngine, wire: &[u8], out: &mut Vec<u8>) -> u64 {
    let client = IpAddr::V4(Ipv4Addr::LOCALHOST);
    out.clear();
    let (made, ()) = count(|| {
        let query = Message::from_bytes(wire).unwrap();
        engine.respond_into(client, &query, false, out).unwrap();
    });
    made - debug_check_allocs(out)
}

fn debug_check_allocs(encoded: &[u8]) -> u64 {
    if cfg!(debug_assertions) {
        count(|| Message::from_bytes(encoded).unwrap()).0
    } else {
        0
    }
}

fn check_budget(engine: &AuthEngine, wire: &[u8], what: &str) -> Message {
    let mut out = Vec::with_capacity(4096);
    // Warm up: first-use initialisation is not per-query cost.
    miss_via_respond(engine, wire, &mut out);
    let (made, resp) = miss_via_respond(engine, wire, &mut out);
    assert!(
        made <= BUDGET,
        "{what}: decode → respond → encode_into made {made} allocations (budget {BUDGET})"
    );
    let via_server = miss_via_respond_into(engine, wire, &mut out);
    assert!(
        via_server <= BUDGET,
        "{what}: decode → respond_into made {via_server} allocations (budget {BUDGET})"
    );
    assert_eq!(
        out,
        resp.to_bytes().unwrap(),
        "{what}: both paths encode the same bytes"
    );
    eprintln!("{what}: {made} allocations via respond, {via_server} via respond_into");
    resp
}

#[test]
fn signed_do_referral_stays_within_budget() {
    let engine = engine();
    let resp = check_budget(&engine, &do_query("www.example.com"), "DO referral");
    assert!(!resp.header.authoritative, "a referral");
    assert!(
        resp.authorities.iter().any(|r| r.rtype == RrType::Ds),
        "signed referral carries DS"
    );
    assert!(
        resp.authorities.iter().any(|r| r.rtype == RrType::Rrsig),
        "and its RRSIG"
    );
}

#[test]
fn signed_nxdomain_stays_within_budget() {
    let engine = engine();
    let resp = check_budget(&engine, &do_query("nope.invalid42"), "signed NXDOMAIN");
    assert_eq!(resp.header.rcode, Rcode::NxDomain);
    assert!(
        resp.authorities.iter().any(|r| r.rtype == RrType::Nsec),
        "signed denial carries NSEC"
    );
}
