//! Recording a span allocates nothing: with the flight recorder armed and
//! its ring already full, closing a span through `Runtime::span_close`
//! makes no heap allocation. A counting global allocator over std's
//! `System` counts the allocations of the test's own thread only, so the
//! harness's other threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use autarky_os_sim::{EnclaveImage, Os};
use autarky_runtime::{Runtime, RuntimeConfig};
use autarky_sgx_sim::machine::MachineConfig;
use autarky_telemetry::SpanKind;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, plus a per-thread count of allocations while counting is on.
struct CountingAlloc;

fn note_allocation() {
    // `try_with`: the allocator also runs while thread-locals are being
    // torn down, when they can no longer be read.
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only
// const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on the calling thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(|n| n.get())
}

#[test]
fn span_close_allocates_nothing_with_a_full_armed_recorder() {
    const RING: usize = 64;
    const CLOSES: u64 = 1_000;
    let mut os = Os::new(MachineConfig {
        epc_frames: 512,
        ..Default::default()
    });
    let eid = os
        .load_enclave(&EnclaveImage::named("alloc-test"))
        .expect("load");
    let mut rt = Runtime::attach(&mut os, eid, RuntimeConfig::default()).expect("attach");
    let mut close_one = |os: &mut Os| {
        let guard = rt.telemetry.enter(SpanKind::Seal, os.machine.clock.now());
        rt.span_close(os, guard);
    };

    os.arm_flight_recorder(RING);
    for _ in 0..RING {
        close_one(&mut os);
    }
    let dropped = os.flight_dropped();
    let allocations = allocations_in(|| {
        for _ in 0..CLOSES {
            close_one(&mut os);
        }
    });

    assert_eq!(allocations, 0, "{CLOSES} span closes allocated");
    assert_eq!(
        os.flight_dropped() - dropped,
        CLOSES,
        "the ring was full, so every close recorded one event and dropped the oldest"
    );
    assert_eq!(
        rt.telemetry.span_agg(SpanKind::Seal).count,
        RING as u64 + CLOSES
    );
}
