//! Telemetry memory follows the tagged sample, not the mesh size:
//! building a 32×32 network with telemetry on allocates at most 1 MiB
//! more than with it off. (Its own integration-test binary because a
//! `#[global_allocator]` is per-binary.)

use noc_network::{Network, NetworkConfig, RouterKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

/// Bytes requested so far (frees are not subtracted).
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Bytes `Network::try_new` requests for `cfg`.
fn construction_bytes(cfg: NetworkConfig) -> u64 {
    let before = BYTES.load(Ordering::Relaxed);
    let net = Network::try_new(cfg).expect("valid config");
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    drop(net);
    bytes
}

/// The only test in this binary, so no other test's allocations land in
/// the counter while it measures.
#[test]
fn telemetry_adds_at_most_a_mebibyte_at_32x32() {
    let cfg = NetworkConfig::mesh(
        32,
        RouterKind::SpeculativeVc {
            vcs: 2,
            buffers_per_vc: 4,
        },
    )
    .with_sample(2_000);
    let off = construction_bytes(cfg.clone());
    let on = construction_bytes(cfg.with_telemetry(1024));
    assert!(
        on <= off + (1 << 20),
        "telemetry on: {on} B, off: {off} B, {} B more",
        on.saturating_sub(off)
    );
}
