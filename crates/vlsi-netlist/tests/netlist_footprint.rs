//! Heap footprint of the largest suite circuit, measured by a counting
//! global allocator.
//!
//! The netlist is the largest structure the placer keeps per circuit, and a
//! long-running job server keeps one per registered circuit. This binary
//! pins two numbers for s15850 (10,306 cells):
//!
//! * the live heap the finished `Netlist` holds, and
//! * the heap peak while `generate()` builds it (netlist plus transients).
//!
//! The allocator counts requested bytes, not malloc chunks, so the bounds
//! are a floor on what the process pays. The file holds a single test so no
//! other test's allocations land in the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use vlsi_netlist::bench_suite::ExtendedCircuit;
use vlsi_netlist::generator::CircuitGenerator;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const MIB: f64 = 1024.0 * 1024.0;

#[test]
fn s15850_netlist_fits_its_memory_budget() {
    let generator = CircuitGenerator::new(ExtendedCircuit::S15850.generator_config());
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let netlist = generator.generate();
    let peak = (PEAK.load(Ordering::Relaxed) - before) as f64 / MIB;
    let live = (LIVE.load(Ordering::Relaxed) - before) as f64 / MIB;
    assert_eq!(netlist.num_cells(), 10_306);
    println!("s15850: live netlist {live:.3} MiB, peak inside generate() {peak:.3} MiB");
    assert!(live <= 1.25, "live netlist {live:.3} MiB exceeds 1.25 MiB");
    assert!(
        peak <= 2.5,
        "generate() peaked at {peak:.3} MiB, above 2.5 MiB"
    );
    drop(netlist);
}
