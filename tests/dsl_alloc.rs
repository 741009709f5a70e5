//! Allocation gate for the litmus front end: parsing allocates per AST
//! node that owns a name, not per byte, line or token. A file of
//! register-only ALU lines (no names) with a comment every five lines
//! must therefore parse with an allocation count that does not grow with
//! its length, up to the logarithmic regrowth of a few vectors.
//!
//! This file deliberately holds a single test — the counter is
//! process-global and the default test runner is multi-threaded, so any
//! second test in this binary would race the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// A one-thread file of `n` padding lines `rK = add rK, 1`.
fn padded_file(n: usize) -> String {
    let mut src = String::from("litmus \"pad\"\n\nthread {\n");
    for i in 0..n {
        if i % 5 == 0 {
            let _ = writeln!(src, "  # padding block {}", i / 5);
        }
        let k = i % 32;
        let _ = writeln!(src, "  r{k} = add r{k}, 1");
    }
    src.push_str("}\n\nexpect vmm: verified\n");
    src
}

fn parse_allocations(src: &str) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let file = vsync::dsl::parse(src).expect("padding parses");
    let after = ALLOCS.load(Ordering::Relaxed);
    drop(file);
    after - before
}

#[test]
fn parse_allocations_do_not_grow_with_line_count() {
    let (small, large) = (padded_file(10_000), padded_file(20_000));
    let _ = parse_allocations(&small); // warmup
    let a = parse_allocations(&small);
    let b = parse_allocations(&large);
    assert!(
        b.abs_diff(a) <= 8,
        "parsing 10,000 lines took {a} allocations and 20,000 took {b}: \
         the front end allocates per line or per token"
    );
}
