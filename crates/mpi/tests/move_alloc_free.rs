//! The placement search's per-move hot path allocates nothing: once a
//! `PlacementCost` is built (and rebased, as the online search's warm pool
//! does), every `apply` / `undo` / `commit` runs on reserved scratch — the
//! dense tree-transfer table, the bitset worklist, the per-assignment ring
//! set-up and the flat ring-row journal.  A counting global allocator pins
//! that on the three shapes the search spends its moves on: an EP-shaped
//! tree schedule, an IS-shaped ring schedule, and a `PerSrc` ring schedule
//! walked with site-changing migrates (the moves that rewrite and journal
//! transfer-table rows).  The test counts allocations; it never times.

use p2pmpi_mpi::model::{CollectiveProgram, Move, PlacementCost, ScheduleBuilder};
use p2pmpi_simgrid::compute::ComputeModel;
use p2pmpi_simgrid::memory::MemoryIntensity;
use p2pmpi_simgrid::network::NetworkModel;
use p2pmpi_simgrid::rngutil::seeded;
use p2pmpi_simgrid::time::SimDuration;
use p2pmpi_simgrid::topology::{HostId, NodeSpec, Topology, TopologyBuilder};
use rand::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts the allocations (and reallocations) made by the current thread,
/// so tests running in parallel cannot disturb each other's counts.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Three sites with distinct RTTs and one slow link, 24 quad-core hosts:
/// room for 64 ranks plus free slots for migrates.
fn topology() -> Arc<Topology> {
    let mut b = TopologyBuilder::new();
    let near = b.add_site("near");
    let mid = b.add_site("mid");
    let far = b.add_site("far");
    let quad = NodeSpec {
        cores: 4,
        ..NodeSpec::default()
    };
    b.add_cluster(near, "n", "cpu", 10, quad);
    b.add_cluster(mid, "m", "cpu", 8, quad);
    b.add_cluster(
        far,
        "f",
        "cpu",
        6,
        NodeSpec {
            ops_per_sec: 1.5e9,
            ..quad
        },
    );
    b.set_rtt(near, mid, SimDuration::from_millis(11));
    b.set_rtt(near, far, SimDuration::from_millis(17));
    b.set_rtt(mid, far, SimDuration::from_millis(17));
    b.set_bandwidth(near, far, 1e9);
    Arc::new(b.build())
}

/// EP's shape: one compute phase, then two allreduces of distinct sizes.
fn ep_shaped<P: CollectiveProgram>(p: &mut P) {
    p.compute(MemoryIntensity::CPU_BOUND, |r| 1e8 * (r % 7 + 1) as f64);
    p.allreduce(2 * 8);
    p.allreduce(12 * 8);
}

/// IS's per-iteration shape: allreduce, uniform alltoall, balanced
/// (per-source) alltoallv, compute; then a final allgather.
fn is_shaped<P: CollectiveProgram>(p: &mut P) {
    let n = p.size() as u64;
    let keys: u64 = 1 << 16;
    for _ in 0..4 {
        p.allreduce(1024 * 8);
        p.alltoall(8);
        p.alltoallv(move |src, _| {
            let share = keys / n + u64::from((src as u64) < keys % n);
            (share / n) * 4
        });
        p.compute(MemoryIntensity::MEMORY_BOUND, move |r| {
            (keys / n + u64::from((r as u64) < keys % n)) as f64 * 50.0
        });
    }
    p.allgather(|_| 3 * 8);
}

/// Two distinct per-source rings (two pooled `PerSrc` tables) around a
/// tree and a compute phase.
fn per_src_rings<P: CollectiveProgram>(p: &mut P) {
    p.alltoallv(|src, dst| {
        if src == dst {
            0
        } else {
            (src as u64 % 5 + 1) * 512
        }
    });
    p.allreduce(64);
    p.alltoallv(|src, _| (src as u64 % 3 + 1) * 4096);
    p.compute(MemoryIntensity::MEMORY_BOUND, |r| 1e6 * (r % 4 + 1) as f64);
}

/// Builds an evaluator for `program` at `n` ranks, then rebases it once
/// onto a different placement — the state a pooled evaluator of the online
/// search is in when an arrival starts annealing on it.
fn warm_evaluator(
    topology: &Arc<Topology>,
    n: u32,
    program: fn(&mut ScheduleBuilder),
) -> PlacementCost {
    let mut b = ScheduleBuilder::new(n);
    program(&mut b);
    let capacity: Vec<u32> = topology.hosts().iter().map(|h| h.cores as u32).collect();
    // Boot packed onto the first hosts, then rebase onto a round-robin
    // spread across every host.
    let packed: Vec<HostId> = (0..n).map(|r| HostId(r as usize / 4)).collect();
    let mut cost = PlacementCost::new(
        Arc::new(b.finish()),
        packed,
        capacity.clone(),
        NetworkModel::new(topology.clone()),
        ComputeModel::new(topology.clone()),
    );
    let host_count = topology.host_count();
    let spread: Vec<HostId> = (0..n).map(|r| HostId(r as usize % host_count)).collect();
    cost.rebase(&spread, &capacity);
    cost
}

/// What one counted walk did.
struct Walk {
    applied: u64,
    calls: u64,
    site_changing_migrates: u64,
}

/// Walks `moves` random moves (swaps, and migrates that always leave the
/// rank's site when `cross_site` is set), undoing a third of the accepted
/// ones.  Returns the walk summary and the allocations it made.
fn counted_walk(
    cost: &mut PlacementCost,
    topology: &Topology,
    moves: u32,
    cross_site: bool,
) -> (Walk, u64) {
    let n = cost.hosts().len() as u32;
    let host_count = topology.host_count();
    let mut rng = seeded(2008);
    let mut walk = Walk {
        applied: 0,
        calls: 0,
        site_changing_migrates: 0,
    };
    let before = allocations();
    for _ in 0..moves {
        let mv = if rng.gen_range(0u32..2) == 0 {
            Move::Swap {
                a: rng.gen_range(0..n),
                b: rng.gen_range(0..n),
            }
        } else {
            let rank = rng.gen_range(0..n);
            let here = topology.host(cost.hosts()[rank as usize]).site;
            let to = loop {
                let h = HostId(rng.gen_range(0..host_count));
                if !cross_site || topology.host(h).site != here {
                    break h;
                }
            };
            Move::Migrate { rank, to }
        };
        walk.calls += 1;
        if cost.apply(mv).is_err() {
            continue;
        }
        walk.applied += 1;
        walk.calls += 1;
        if cross_site && matches!(mv, Move::Migrate { .. }) {
            walk.site_changing_migrates += 1;
        }
        if rng.gen_range(0u32..3) == 0 {
            cost.undo();
        } else {
            cost.commit();
        }
    }
    let made = allocations() - before;
    (walk, made)
}

fn assert_walk_allocates_nothing(
    n: u32,
    program: fn(&mut ScheduleBuilder),
    cross_site: bool,
) -> Walk {
    let topology = topology();
    let mut cost = warm_evaluator(&topology, n, program);
    let (walk, made) = counted_walk(&mut cost, &topology, 1_000, cross_site);
    assert_eq!(
        made, 0,
        "{made} heap allocations across {} apply/undo/commit calls at {n} ranks",
        walk.calls
    );
    assert!(walk.calls >= 1_000, "only {} calls", walk.calls);
    assert!(
        walk.applied >= 300,
        "the walk barely moved ({} applied)",
        walk.applied
    );
    // The walk was real work, not a string of no-ops: the evaluator still
    // agrees with a from-scratch replay at the end.
    assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
    walk
}

#[test]
fn ep_shaped_moves_allocate_nothing() {
    assert_walk_allocates_nothing(64, ep_shaped, false);
}

#[test]
fn is_shaped_moves_allocate_nothing() {
    assert_walk_allocates_nothing(32, is_shaped, false);
}

#[test]
fn per_src_ring_site_changing_migrates_allocate_nothing() {
    let walk = assert_walk_allocates_nothing(24, per_src_rings, true);
    assert!(
        walk.site_changing_migrates >= 50,
        "only {} site-changing migrates applied",
        walk.site_changing_migrates
    );
}
