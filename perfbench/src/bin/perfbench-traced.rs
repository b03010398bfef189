//! Traced benchmark binary: counts allocations for the per-layer metrics.

#[global_allocator]
static ALLOC: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

fn main() {
    std::process::exit(perfbench::main_with(true));
}
