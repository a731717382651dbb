//! Proof that the engines' steady state is allocation-free: the
//! delivery calendars, mailbox exchange, source stepping, and the
//! measurement commit (tagging, latency, histogram, channel load) must
//! all run out of retained buffers once capacities plateau.
//!
//! The sharded network is driven through the *inline* step path — the
//! same phase functions and mailbox exchange the threaded run executes,
//! minus the thread pool — because a counting global allocator needs
//! single-threaded windows to attribute allocations deterministically.
//! (This is its own integration-test binary because a
//! `#[global_allocator]` is per-binary.)

use noc_network::config::EngineKind;
use noc_network::{Network, NetworkConfig, RouterKind, TrafficPattern};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

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

const SPEC_VC: RouterKind = RouterKind::SpeculativeVc {
    vcs: 2,
    buffers_per_vc: 4,
};

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Held by every test for its whole run: the counter is process-global
/// and libtest runs the tests of one binary concurrently, so one test's
/// warm-up allocations would otherwise land in another's windows.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Steps `net` for `cycles` and returns the allocations performed.
fn alloc_window(net: &mut Network, cycles: u64) -> u64 {
    let before = allocations();
    for _ in 0..cycles {
        net.step();
    }
    allocations() - before
}

/// One serial test (the counter is process-global) covering two shard
/// counts, including one that does not divide the node count, at a load
/// where packets are created, forwarded across shard boundaries, tagged,
/// and ejected continuously — so every mailbox and commit path is hot.
#[test]
fn sharded_steady_state_is_allocation_free() {
    let _serial = serial();
    for shards in [2, 3] {
        run_alloc_free_check(
            NetworkConfig::mesh(4, SPEC_VC),
            EngineKind::ParallelShards { shards },
        );
    }
    // A 3-D mesh of 7-port routers: the generalized topology stack must
    // preserve the zero-steady-state-allocation guarantee end to end
    // (route table, mailboxes sized from mesh.ports(), commit paths).
    run_alloc_free_check(
        NetworkConfig::for_mesh(noc_network::Mesh::new(3, 3), SPEC_VC),
        EngineKind::ParallelShards { shards: 3 },
    );
}

/// The serial engines deliver through the same calendar: its slot
/// buffers are taken and restored every cycle, so once each slot has
/// seen its high-water mark neither engine allocates — on a 2-D mesh and
/// on a 3-D mesh of 7-port routers, and under the deterministic
/// permutations, whose destinations are computed from the node index.
#[test]
fn serial_steady_state_is_allocation_free() {
    let _serial = serial();
    for engine in [EngineKind::EventDriven, EngineKind::CycleDriven] {
        for mesh in [noc_network::Mesh::new(4, 2), noc_network::Mesh::new(3, 3)] {
            run_alloc_free_check(NetworkConfig::for_mesh(mesh, SPEC_VC), engine);
        }
        for pattern in [TrafficPattern::Transpose, TrafficPattern::Tornado] {
            run_alloc_free_check(
                NetworkConfig::mesh(4, SPEC_VC).with_pattern(pattern),
                engine,
            );
        }
    }
}

/// Past saturation every source's backlog grows without bound — but
/// only in count: a backlog is replayed from a cursor, not stored, so a
/// saturated steady state allocates nothing either. Every window must
/// be clean here, not just the best one, because a growing structure
/// would allocate again and again as it doubles.
#[test]
fn saturated_steady_state_is_allocation_free() {
    let _serial = serial();
    let hotspot = TrafficPattern::Hotspot {
        hotspot: 5,
        hotness: 0.6,
    };
    for (pattern, load) in [(hotspot, 0.5), (TrafficPattern::Uniform, 0.9)] {
        for engine in [
            EngineKind::EventDriven,
            EngineKind::ParallelShards { shards: 2 },
        ] {
            let cfg = NetworkConfig::mesh(4, SPEC_VC)
                .with_pattern(pattern.clone())
                .with_injection(load)
                .with_warmup(100)
                .with_sample(u64::MAX)
                .with_max_cycles(u64::MAX)
                .with_engine(engine);
            let mut net = Network::new(cfg);
            let _ = alloc_window(&mut net, 3_000);
            let backlog = net.total_backlog();
            let mut windows = [0u64; 5];
            for w in &mut windows {
                *w = alloc_window(&mut net, 1_000);
            }
            assert!(
                net.total_backlog() > backlog,
                "{pattern} at {load} on {engine:?} must be saturated \
                 (backlog {backlog} -> {})",
                net.total_backlog()
            );
            assert_eq!(
                windows, [0; 5],
                "{pattern} at {load} on {engine:?}: saturated windows allocated"
            );
            net.assert_flit_conservation();
        }
    }
}

/// The fused compute path at near-quiescent load: most cycles deliver
/// nothing, inject nothing, and tick no routers, so the per-cycle cost
/// is mailbox checks, wheel cursor moves, and vote bookkeeping — all of
/// which must run out of retained buffers too. (The inline step path
/// never fast-forwards, so every one of these idle cycles actually
/// executes the fused phases.)
#[test]
fn sharded_quiescent_cycles_are_allocation_free() {
    let _serial = serial();
    let cfg = NetworkConfig::mesh(
        4,
        RouterKind::VirtualChannel {
            vcs: 2,
            buffers_per_vc: 4,
        },
    )
    .with_injection(0.02)
    .with_warmup(100)
    .with_sample(u64::MAX)
    .with_max_cycles(u64::MAX)
    .with_engine(EngineKind::ParallelShards { shards: 3 });
    let mut net = Network::new(cfg);
    let _ = alloc_window(&mut net, 1_500);
    let mut min_window = u64::MAX;
    for _ in 0..5 {
        min_window = min_window.min(alloc_window(&mut net, 1_000));
    }
    assert_eq!(
        min_window, 0,
        "every quiescent steady-state window allocated \
         (min {min_window} per 1000 cycles)"
    );
    net.assert_flit_conservation();
}

/// Work-metered rebalancing must not break the steady-state guarantee:
/// the meters fold into retained EWMAs, the epoch decision reuses the
/// prefix/range scratch, and a firing *migration* drains wheels,
/// and mailboxes into buffers preallocated at
/// construction — so the step that performs a live migration allocates
/// nothing, and neither do the epoch-metering windows after it.
///
/// The epoch is placed past the capacity-plateau warmup and the skewed
/// hotspot keeps imbalance above the threshold, so the drive provably
/// migrates. After the migration the moved rows' *new* owners grow their
/// calendar slots to the traffic once (ordinary capacity warmup),
/// which a regrow window absorbs before the measured ones. The scenario
/// is retried because the allocation counter is process-global (another
/// harness thread may allocate during the single migration step); an
/// allocating migration path would fail every attempt.
#[test]
fn sharded_rebalance_migration_is_allocation_free() {
    let _serial = serial();
    let attempts = 3;
    let mut best_migration = u64::MAX;
    let mut best_window = u64::MAX;
    for _ in 0..attempts {
        let cfg = NetworkConfig::mesh(4, SPEC_VC)
            .with_pattern(noc_network::TrafficPattern::Hotspot {
                hotspot: 5,
                hotness: 0.6,
            })
            // The hotspot stays below its ejection limit (16 * 0.06 * 0.6 ≈
            // 0.58 flits/cycle); saturated steady states are covered by
            // `saturated_steady_state_is_allocation_free`.
            .with_injection(0.06)
            .with_warmup(100)
            .with_sample(u64::MAX)
            .with_max_cycles(u64::MAX)
            .with_engine(EngineKind::ParallelShards { shards: 3 })
            .with_rebalance(2_000, 1.05);
        let mut net = Network::new(cfg);
        // Past every capacity plateau, short of the first epoch decision
        // at executed cycle 2000.
        let _ = alloc_window(&mut net, 1_900);
        // Walk up to the migration and meter exactly the step that
        // performs it (drain + re-cut + re-home).
        let before_rb = net.rebalances();
        let mut migration = None;
        for _ in 0..1_000 {
            let step = alloc_window(&mut net, 1);
            if net.rebalances() > before_rb {
                migration = Some(step);
                break;
            }
        }
        best_migration =
            best_migration.min(migration.expect("skewed load must trigger a migration"));
        // Let the new owners regrow to the traffic, then require the
        // epoch-metering steady state to be allocation-free again.
        let _ = alloc_window(&mut net, 1_000);
        for _ in 0..5 {
            best_window = best_window.min(alloc_window(&mut net, 1_000));
        }
        net.assert_flit_conservation();
        if best_migration == 0 && best_window == 0 {
            break;
        }
    }
    assert_eq!(
        best_migration, 0,
        "the migration step allocated (best {best_migration} over {attempts} attempts)"
    );
    assert_eq!(
        best_window, 0,
        "every post-migration metering window allocated \
         (best {best_window} per 1000 cycles)"
    );
}

/// Telemetry must not break the steady-state guarantee: counter updates
/// are integer adds into slots preallocated at construction, flow
/// recording is three array stores into a fixed-size accumulator, and
/// each epoch emission appends fixed-width rows to the in-memory log —
/// whose *amortized* (geometric) growth the min-over-windows discipline
/// absorbs. An allocating per-cycle, per-flit, or per-snapshot path
/// would show up in every window.
#[test]
fn telemetry_instrumented_steady_state_is_allocation_free() {
    let _serial = serial();
    let cfg = NetworkConfig::mesh(4, SPEC_VC)
        .with_injection(0.25)
        .with_warmup(100)
        .with_sample(u64::MAX)
        .with_max_cycles(u64::MAX)
        .with_telemetry(256)
        .with_engine(EngineKind::ParallelShards { shards: 3 });
    let mut net = Network::new(cfg);
    let _ = alloc_window(&mut net, 1_500);
    let mut min_window = u64::MAX;
    for _ in 0..5 {
        min_window = min_window.min(alloc_window(&mut net, 1_000));
    }
    assert_eq!(
        min_window, 0,
        "telemetry-on steady-state window allocated \
         (min {min_window} per 1000 cycles)"
    );
    net.assert_flit_conservation();
}

fn run_alloc_free_check(base: NetworkConfig, engine: EngineKind) {
    let cfg = base
        .with_injection(0.25)
        .with_warmup(100)
        // Never-completing sample: tagging stays active through every
        // measured window.
        .with_sample(u64::MAX)
        .with_max_cycles(u64::MAX)
        .with_engine(engine);
    let mut net = Network::new(cfg);

    // Warm-up: let every retained buffer — calendars, mailboxes, shard
    // records, scratch — reach its high-water mark.
    let _ = alloc_window(&mut net, 1_500);

    // Take the minimum over several windows: the counter is global,
    // so a libtest harness thread may allocate once somewhere, but an
    // allocating engine path would show up in every window.
    let mut min_window = u64::MAX;
    for _ in 0..5 {
        min_window = min_window.min(alloc_window(&mut net, 1_000));
    }
    assert_eq!(
        min_window, 0,
        "{engine:?}: every steady-state window allocated \
             (min {min_window} per 1000 cycles)"
    );
    assert!(
        net.flits_ejected() > 1_000,
        "{engine:?}: the drive must actually move traffic \
             ({} ejected)",
        net.flits_ejected()
    );
    net.assert_flit_conservation();
}
