//! Memory gate: what the kernel keeps after serving a connection.
//!
//! A counting global allocator tracks live heap bytes. The ring-server
//! scenario runs at two connection counts, and the heap still live once
//! the fleet has drained (the kernel not yet dropped) is compared. Closed
//! sockets, closed descriptors and woken sleepers must not be retained,
//! and a live metrics snapshot must not copy the span history, so each
//! extra connection served may leave at most `MAX_BYTES_PER_CONN`
//! behind: the exited client process and its splice span, which the
//! reports still read.
//!
//! This file is its own test binary with a single test, so no other test
//! thread allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::rc::Rc;
use std::sync::atomic::{AtomicIsize, Ordering};

use knet::LinkModel;
use kproc::programs::{open_loop_delays, scenario_stats, ServeMode, ServerClient, SpliceServer};
use kproc::{ProcState, SockAddr};
use ksim::Dur;
use splice::KernelBuilder;

/// Counts live heap bytes. The test is single-threaded, so relaxed
/// atomics are exact.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

fn grew(bytes: usize, p: *mut u8) -> *mut u8 {
    if !p.is_null() {
        LIVE.fetch_add(bytes as isize, Ordering::Relaxed);
    }
    p
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter never touches
// the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size(), System.alloc(layout))
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size(), System.alloc_zeroed(layout))
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = grew(new_size, System.realloc(ptr, layout, new_size));
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const FILE_BYTES: u64 = 8 * 1024;
const PORT: u16 = 80;
const SEED: u64 = 1;
/// Open-loop arrivals at 25 requests/s: well below the server's
/// capacity, so concurrency stays small whatever the fleet size.
const GAP: Dur = Dur::from_ms(40);
/// Retained heap allowed per extra connection served.
const MAX_BYTES_PER_CONN: f64 = 1.2 * 1024.0;

/// Serves `conns` clients from the depth-64 ring server over the
/// modelled 1 Gb/s link and returns the heap bytes still live after the
/// fleet drained, with the kernel alive.
fn retained_after(conns: usize) -> isize {
    let before = LIVE.load(Ordering::Relaxed);
    let mut k = KernelBuilder::paper_machine_ram().build();
    k.net_mut().set_link_model(
        1,
        LinkModel {
            bps: 125_000_000,
            base_latency: Dur::from_us(200),
            jitter: Dur::from_us(100),
            loss_ppm: 0,
            seed: SEED,
        },
    );
    k.setup_file("/d0/file", FILE_BYTES, SEED);
    k.cold_cache();
    let stats = scenario_stats();
    let server = k.spawn(Box::new(SpliceServer::new(
        PORT,
        "/d0/file",
        FILE_BYTES,
        conns,
        128,
        ServeMode::Ring { depth: 64 },
        Rc::clone(&stats),
    )));
    let addr = SockAddr {
        host: 1,
        port: PORT,
    };
    let window = Dur::from_ns(conns as u64 * GAP.as_ns());
    for delay in open_loop_delays(conns, window, SEED) {
        k.spawn(Box::new(ServerClient::new(
            addr,
            FILE_BYTES,
            SEED,
            delay,
            Rc::clone(&stats),
        )));
    }
    let horizon = k.horizon(600);
    k.run_to_exit(horizon);
    assert!(matches!(k.procs().must(server).state, ProcState::Exited(0)));
    {
        let s = stats.borrow();
        assert_eq!(s.completed, conns as u64, "{conns} connections: short");
        assert_eq!(s.mismatches, 0, "{conns} connections: corruption");
    }
    assert_eq!(k.net().open_socks(), 0, "every socket closed");
    // A live metrics snapshot shares the span history, not a copy of it.
    let snapshot = k.metrics();
    let retained = LIVE.load(Ordering::Relaxed) - before;
    drop(snapshot);
    drop(k);
    retained
}

#[test]
fn retained_heap_per_connection_is_bounded() {
    let (small, large) = (1024, 4096);
    let small_bytes = retained_after(small);
    let large_bytes = retained_after(large);
    let per_conn = (large_bytes - small_bytes) as f64 / (large - small) as f64;
    println!(
        "retained heap: {small_bytes} B at {small} connections, {large_bytes} B at {large}: \
         {per_conn:.0} B per extra connection (limit {MAX_BYTES_PER_CONN:.0})"
    );
    assert!(
        per_conn <= MAX_BYTES_PER_CONN,
        "each extra connection leaves {per_conn:.0} B behind (limit {MAX_BYTES_PER_CONN:.0})"
    );
}
