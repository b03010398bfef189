//! Wire codec microbenchmarks, including the compression ablation called
//! out in DESIGN.md: name compression costs a hash lookup per label but
//! shrinks referral responses substantially. Each line also reports
//! allocations per iteration.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ldp_bench::alloc::{thread_allocs, CountingAlloc};
use ldp_wire::{Edns, Message, Name, RData, Record, RrType};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn count_allocations(_: &mut Criterion) {
    criterion::count_allocations_with(thread_allocs);
}

fn referral_response() -> Message {
    let n = |s: &str| Name::parse(s).unwrap();
    let mut q = Message::query(1, n("www.example.com"), RrType::A);
    q.edns = Some(Edns::with_do());
    let mut m = Message::response_for(&q);
    for i in 0..13 {
        let ns = n(&format!("{}.gtld-servers.net", (b'a' + i) as char));
        m.authorities
            .push(Record::new(n("com"), 172800, RData::Ns(ns.clone())));
        m.additionals.push(Record::new(
            ns,
            172800,
            RData::A(format!("192.5.6.{}", 30 + i).parse().unwrap()),
        ));
    }
    m
}

fn bench_encode(c: &mut Criterion) {
    let msg = referral_response();
    let mut g = c.benchmark_group("wire/encode");
    g.throughput(Throughput::Elements(1));
    g.bench_function("compressed", |b| {
        b.iter(|| black_box(&msg).to_bytes().unwrap())
    });
    g.bench_function("uncompressed", |b| {
        b.iter(|| black_box(&msg).to_bytes_uncompressed().unwrap())
    });
    // The server's form: appended to a buffer reused across messages.
    let mut out = Vec::with_capacity(1024);
    g.bench_function("compressed_into_warm_buffer", |b| {
        b.iter(|| {
            out.clear();
            black_box(&msg).encode_into(&mut out).unwrap();
            out.len()
        })
    });
    let compressed = msg.to_bytes().unwrap().len();
    let plain = msg.to_bytes_uncompressed().unwrap().len();
    println!("referral sizes: compressed={compressed}B uncompressed={plain}B");
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let bytes = referral_response().to_bytes().unwrap();
    let mut g = c.benchmark_group("wire/decode");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("referral", |b| {
        b.iter(|| Message::from_bytes(black_box(&bytes)).unwrap())
    });
    let query = Message::query(7, Name::parse("www.example.com").unwrap(), RrType::A)
        .to_bytes()
        .unwrap();
    g.bench_function("query", |b| {
        b.iter(|| Message::from_bytes(black_box(&query)).unwrap())
    });
    g.finish();
}

fn bench_name(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire/name");
    g.bench_function("parse", |b| {
        b.iter(|| Name::parse(black_box("www.some-long-host.example.com")).unwrap())
    });
    let a = Name::parse("www.example.com").unwrap();
    let b2 = Name::parse("mail.example.com").unwrap();
    g.bench_function("canonical_cmp", |b| {
        b.iter(|| black_box(&a).canonical_cmp(black_box(&b2)))
    });
    g.finish();
}

criterion_group!(
    benches,
    count_allocations,
    bench_encode,
    bench_decode,
    bench_name
);
criterion_main!(benches);
