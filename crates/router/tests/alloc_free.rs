//! Proof that the default-path router tick is allocation-free in steady
//! state: a counting global allocator wraps `System`, the router is
//! warmed up until every retained buffer has reached its high-water
//! capacity, and then thousands of fully loaded cycles must perform
//! **zero** heap allocations — across every flow-control kind.
//!
//! (This is its own integration-test binary because a `#[global_allocator]`
//! is per-binary.)

use router_core::{Flit, FlitKind, PacketId, Router, RouterConfig, TickOutput};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Drives `cfg` at full tilt — every port fed a fresh flit whenever its
/// buffer has room, credits looped straight back — and asserts that after
/// a warm-up no tick allocates.
fn assert_steady_state_tick_is_allocation_free(cfg: RouterConfig, label: &str) {
    let ports = cfg.ports;
    let buffers = cfg.buffers_per_vc;
    let mut router = Router::new(cfg);
    for port in 0..ports {
        router.set_output_credits(port, buffers as u64);
    }
    // Constant crossing traffic: input i -> output (i + 1) % ports.
    let route = move |f: &Flit| (f.dest) % ports;
    let mut out = TickOutput::default();
    let mut next_packet = 1u64;
    let drive = |router: &mut Router, out: &mut TickOutput, now: u64, next_packet: &mut u64| {
        for port in 0..ports {
            if router.input_occupancy(port, 0) < buffers {
                // Single-flit packets (head+tail at once), built without
                // the Vec of `Flit::packet` — the harness must not
                // allocate either. Routed to (port + 1) % ports.
                let dest = port + 1;
                let mut flit = Flit::head(PacketId::new(*next_packet), dest, 0, now);
                flit.kind = FlitKind::HeadTail;
                *next_packet += 1;
                router.accept_flit(port, flit, now);
            }
        }
        router.tick_into(now, &route, out);
        // Return every credit immediately: downstream never backpressures,
        // so the router stays saturated with work each cycle.
        for d in 0..out.departures.len() {
            let dep = out.departures[d];
            router.accept_credit(dep.out_port, dep.flit.vc, now);
        }
    };

    // Warm-up: let every retained buffer (scratch, pending ST, tick
    // output, allocator internals) reach its high-water mark.
    for now in 0..200 {
        drive(&mut router, &mut out, now, &mut next_packet);
    }

    // Measure several windows and take the *minimum*: the counter is
    // process-global, so a libtest harness thread can allocate once
    // somewhere in the run (event channel growth) — but a tick path that
    // allocates would do so in every window, keeping the minimum > 0.
    let mut min_window = u64::MAX;
    let mut now = 200;
    for _ in 0..5 {
        let before = allocations();
        for _ in 0..1_000 {
            drive(&mut router, &mut out, now, &mut next_packet);
            now += 1;
        }
        min_window = min_window.min(allocations() - before);
    }
    assert_eq!(
        min_window, 0,
        "{label}: every steady-state window allocated (min {min_window} per 1000 ticks)"
    );
    assert!(
        router.stats().flits_switched > 1_000,
        "{label}: the drive loop must actually move traffic ({} switched)",
        router.stats().flits_switched
    );
}

/// One serial test (the counter is a process-wide global; concurrent
/// tests would see each other's warm-up allocations) covering every
/// flow-control kind plus the unit-latency timing model.
#[test]
fn steady_state_ticks_are_allocation_free() {
    assert_steady_state_tick_is_allocation_free(RouterConfig::wormhole(5, 8), "wormhole");
    assert_steady_state_tick_is_allocation_free(RouterConfig::virtual_cut_through(5, 8), "VCT");
    assert_steady_state_tick_is_allocation_free(RouterConfig::virtual_channel(5, 2, 4), "VC");
    assert_steady_state_tick_is_allocation_free(RouterConfig::speculative(5, 2, 4), "specVC");
    assert_steady_state_tick_is_allocation_free(
        RouterConfig::speculative(5, 2, 4).into_single_cycle(),
        "specVC single-cycle",
    );
    // The 7-port shape of a 3-D mesh router: the zero-allocation
    // guarantee must survive the dimension-generic topology stack, not
    // just the paper's 5-port 2-D configuration.
    assert_steady_state_tick_is_allocation_free(RouterConfig::wormhole(7, 8), "wormhole 7-port");
    assert_steady_state_tick_is_allocation_free(
        RouterConfig::virtual_channel(7, 2, 4),
        "VC 7-port",
    );
    assert_steady_state_tick_is_allocation_free(
        RouterConfig::speculative(7, 2, 4),
        "specVC 7-port",
    );
    // 7 ports x 8 VCs = 56 channels: the widest shape any committed
    // configuration uses, near the routers' one-word channel-mask limit.
    assert_steady_state_tick_is_allocation_free(
        RouterConfig::speculative(7, 8, 4),
        "specVC 7-port 8-VC",
    );

    // Counter sanity check (and the TraceSink gate's other half): the
    // same traffic through a router with tracing *enabled* does record —
    // the zero measured above is a property of the default path, not of
    // a broken counter.
    let mut traced = Router::new(RouterConfig::wormhole(5, 8));
    for port in 0..5 {
        traced.set_output_credits(port, 8);
    }
    traced.enable_trace(1 << 20);
    let before = allocations();
    for now in 0..50 {
        if traced.input_occupancy(0, 0) < 8 {
            let mut flit = Flit::head(PacketId::new(now + 1), 2, 0, now);
            flit.kind = FlitKind::HeadTail;
            traced.accept_flit(0, flit, now);
        }
        let _ = traced.tick(now, &|_: &Flit| 2);
    }
    assert!(
        allocations() > before,
        "a traced router records entries (sanity check of the counter)"
    );
}
