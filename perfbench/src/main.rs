//! Untraced benchmark binary: the system allocator, end-to-end metrics.

fn main() {
    std::process::exit(perfbench::main_with(false));
}
