//! Property test of the incremental placement evaluator: after any sequence
//! of swap/migrate moves (committed or undone) over any placement and any
//! collective program, `PlacementCost`'s cached per-rank clocks must equal a
//! from-scratch `ModelComm` replay of the same program **exactly** — the
//! delta-evaluation contract of `p2pmpi_mpi::model`.

use p2pmpi_mpi::model::{CollectiveProgram, Move, MoveError, PlacementCost, ScheduleBuilder};
use p2pmpi_simgrid::compute::ComputeModel;
use p2pmpi_simgrid::memory::MemoryIntensity;
use p2pmpi_simgrid::network::NetworkModel;
use p2pmpi_simgrid::rngutil::seeded;
use p2pmpi_simgrid::topology::{HostId, NodeSpec, Topology, TopologyBuilder};
use proptest::{prop_assert, prop_assert_eq, proptest};
use rand::Rng;
use std::sync::Arc;

/// Three sites with distinct RTTs (one on a slow 1 Gbps link, like
/// Bordeaux) and eight dual-core hosts, so random placements and moves mix
/// loopback, intra-site and cross-site messaging plus co-location.
fn topology() -> Arc<Topology> {
    let mut b = TopologyBuilder::new();
    let near = b.add_site("near");
    let mid = b.add_site("mid");
    let far = b.add_site("far");
    b.add_cluster(near, "n", "cpu", 4, NodeSpec::default());
    b.add_cluster(mid, "m", "cpu", 2, NodeSpec::default());
    b.add_cluster(
        far,
        "f",
        "cpu",
        2,
        NodeSpec {
            cores: 4,
            ops_per_sec: 1.5e9,
            ..NodeSpec::default()
        },
    );
    b.set_rtt(
        near,
        mid,
        p2pmpi_simgrid::time::SimDuration::from_millis(11),
    );
    b.set_rtt(
        near,
        far,
        p2pmpi_simgrid::time::SimDuration::from_millis(17),
    );
    b.set_rtt(mid, far, p2pmpi_simgrid::time::SimDuration::from_millis(17));
    b.set_bandwidth(near, far, 1e9);
    Arc::new(b.build())
}

/// A random collective program mixing every schedule shape the compiler
/// knows (compute, trees, rings, advance).
fn random_program<P: CollectiveProgram>(p: &mut P, program_seed: u64) {
    let mut rng = seeded(program_seed);
    let n = p.size();
    let steps = rng.gen_range(2usize..6);
    for _ in 0..steps {
        match rng.gen_range(0u32..8) {
            0 => {
                let scale = rng.gen_range(1u64..50) as f64;
                p.compute(MemoryIntensity::MEMORY_BOUND, |r| {
                    1e6 * scale * (r as f64 + 1.0)
                });
            }
            1 => p.bcast(rng.gen_range(0..n), rng.gen_range(1u64..5000)),
            2 => p.reduce(rng.gen_range(0..n), rng.gen_range(1u64..2000)),
            3 => p.allreduce(rng.gen_range(1u64..1000)),
            4 => p.alltoall(rng.gen_range(1u64..500)),
            5 => {
                let stride = rng.gen_range(0u64..37);
                p.alltoallv(move |src, dst| (src as u64 + dst as u64 * stride) % 91 * 4);
            }
            6 => p.allgather(|r| (r as u64 % 5) * 8 + 8),
            _ => p.barrier(),
        }
    }
}

/// A random *ring-dominated* program: several alltoall(v) segments back to
/// back — uniform, per-source and genuinely per-pair byte structures — with
/// the occasional compute or tree wedged between.  This is the shape that
/// stresses the pooled ring transfer tables (and the per-pair fallback
/// path) far harder than [`random_program`]'s one-in-eight ring draw.
fn ring_heavy_program<P: CollectiveProgram>(p: &mut P, program_seed: u64) {
    let mut rng = seeded(program_seed);
    let rings = rng.gen_range(3usize..7);
    for _ in 0..rings {
        match rng.gen_range(0u32..4) {
            // Uniform: every pair the same (compresses to one table row set).
            0 => p.alltoall(rng.gen_range(1u64..4000)),
            // Per-source: dst-independent rows, zero diagonal (FT-shaped).
            1 => {
                let scale = rng.gen_range(1u64..64);
                p.alltoallv(move |src, dst| {
                    if src == dst {
                        0
                    } else {
                        (src as u64 % 7 + 1) * scale * 8
                    }
                });
            }
            // Per-pair: rows genuinely differ, so no table is built and the
            // wavefront must fall back to per-receive transfer costing.
            2 => {
                let stride = rng.gen_range(1u64..29);
                p.alltoallv(move |src, dst| (src as u64 * 13 + dst as u64 * stride) % 97 * 8);
            }
            // A wedge between rings, so ring exits feed non-ring segments.
            _ => match rng.gen_range(0u32..3) {
                0 => p.allreduce(rng.gen_range(1u64..500)),
                1 => {
                    let scale = rng.gen_range(1u64..20) as f64;
                    p.compute(MemoryIntensity::CPU_BOUND, move |r| {
                        1e5 * scale * (r % 5 + 1) as f64
                    });
                }
                _ => p.barrier(),
            },
        }
    }
}

/// A tree-heavy program with at least three distinct tree byte counts
/// spread over at least two `Msgs` segments (a compute phase splits them),
/// one byte count reused across segments, a rank-dependent gather, and a
/// genuinely per-pair ring — the shapes that exercise the dense
/// `[byte class][link class]` transfer table and the `PerPair` fallback
/// side by side.
fn multi_class_tree_program<P: CollectiveProgram>(p: &mut P, program_seed: u64) {
    let mut rng = seeded(program_seed);
    let n = p.size();
    let b1 = rng.gen_range(1u64..500);
    let b2 = b1 + rng.gen_range(1u64..500);
    let b3 = b2 + rng.gen_range(1u64..500);
    p.bcast(rng.gen_range(0..n), b1);
    p.reduce(rng.gen_range(0..n), b2);
    p.compute(MemoryIntensity::MEMORY_BOUND, |r| 1e6 * (r % 3 + 1) as f64);
    p.allreduce(b3);
    p.gather(rng.gen_range(0..n), |r| (r as u64 % 4 + 1) * 16);
    let stride = rng.gen_range(1u64..29);
    p.alltoallv(move |src, dst| (src as u64 * 13 + dst as u64 * stride) % 97 * 8);
    p.bcast(0, b1);
}

/// A random move: a swap or an (unfiltered, possibly infeasible) migrate.
fn random_move(rng: &mut impl Rng, n: u32, host_count: usize) -> Move {
    if rng.gen_range(0u32..2) == 0 {
        Move::Swap {
            a: rng.gen_range(0..n),
            b: rng.gen_range(0..n),
        }
    } else {
        Move::Migrate {
            rank: rng.gen_range(0..n),
            to: HostId(rng.gen_range(0..host_count)),
        }
    }
}

/// Assigns `n` ranks to random hosts without exceeding any host's core
/// capacity (migrates need somewhere to go, so capacity-feasible starts
/// matter).
fn random_feasible_hosts(topology: &Topology, n: u32, seed: u64) -> Vec<HostId> {
    let mut rng = seeded(seed);
    let mut free: Vec<u32> = topology.hosts().iter().map(|h| h.cores as u32).collect();
    (0..n)
        .map(|_| loop {
            let h = rng.gen_range(0..free.len());
            if free[h] > 0 {
                free[h] -= 1;
                break HostId(h);
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn delta_after_any_move_sequence_equals_full_replay(
        n in 2u32..17,
        placement_seed in 0u64..1_000_000,
        program_seed in 0u64..1_000_000,
        move_seed in 0u64..1_000_000,
    ) {
        let topology = topology();
        let mut b = ScheduleBuilder::new(n);
        random_program(&mut b, program_seed);
        let schedule = Arc::new(b.finish());
        let hosts = random_feasible_hosts(&topology, n, placement_seed);
        let capacity: Vec<u32> = topology.hosts().iter().map(|h| h.cores as u32).collect();
        let mut cost = PlacementCost::new(
            schedule,
            hosts,
            capacity,
            NetworkModel::new(topology.clone()),
            ComputeModel::new(topology.clone()),
        );

        // At rest the caches are a full replay by construction.
        prop_assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);

        let mut rng = seeded(move_seed);
        let host_count = topology.host_count();
        for _ in 0..12 {
            let mv = if rng.gen_range(0u32..2) == 0 {
                Move::Swap {
                    a: rng.gen_range(0..n),
                    b: rng.gen_range(0..n),
                }
            } else {
                // Deliberately unfiltered: some migrates violate capacity
                // and must be rejected without touching any state.
                Move::Migrate {
                    rank: rng.gen_range(0..n),
                    to: HostId(rng.gen_range(0..host_count)),
                }
            };
            let before_cost = cost.cost();
            let before_hosts = cost.hosts().to_vec();
            match cost.apply(mv) {
                Err(MoveError::CapacityExceeded { .. }) => {
                    // Rejection is mutation-free.
                    prop_assert_eq!(cost.cost(), before_cost);
                    prop_assert_eq!(cost.hosts(), &before_hosts[..]);
                    prop_assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
                }
                Ok(new_cost) => {
                    // Delta-after-move equals the from-scratch replay,
                    // per rank, bit for bit.
                    let oracle = cost.oracle_clocks();
                    prop_assert_eq!(cost.clocks(), &oracle[..],
                        "delta clocks diverged from the oracle after {:?}", mv);
                    let oracle_max = oracle.iter().copied().max().unwrap();
                    prop_assert_eq!(
                        new_cost,
                        oracle_max.saturating_since(p2pmpi_simgrid::time::SimTime::ZERO)
                    );
                    if rng.gen_range(0u32..3) == 0 {
                        // Revert: the pre-move state must come back exactly.
                        cost.undo();
                        prop_assert_eq!(cost.cost(), before_cost);
                        prop_assert_eq!(cost.hosts(), &before_hosts[..]);
                        prop_assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
                    } else {
                        cost.commit();
                    }
                }
            }
        }
        // The capacity invariant survived the walk.
        let mut used = vec![0u32; host_count];
        for &h in cost.hosts() {
            used[h.0] += 1;
        }
        for (h, &u) in used.iter().enumerate() {
            prop_assert!(u <= topology.host(HostId(h)).cores as u32);
        }
    }

    #[test]
    fn ring_heavy_delta_equals_full_replay(
        n in 8u32..21,
        placement_seed in 0u64..1_000_000,
        program_seed in 0u64..1_000_000,
        move_seed in 0u64..1_000_000,
    ) {
        let topology = topology();
        let mut b = ScheduleBuilder::new(n);
        ring_heavy_program(&mut b, program_seed);
        let schedule = Arc::new(b.finish());
        let hosts = random_feasible_hosts(&topology, n, placement_seed);
        let capacity: Vec<u32> = topology.hosts().iter().map(|h| h.cores as u32).collect();
        let mut cost = PlacementCost::new(
            schedule,
            hosts,
            capacity,
            NetworkModel::new(topology.clone()),
            ComputeModel::new(topology.clone()),
        );
        prop_assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);

        let mut rng = seeded(move_seed);
        let host_count = topology.host_count();
        for _ in 0..10 {
            let mv = if rng.gen_range(0u32..2) == 0 {
                Move::Swap { a: rng.gen_range(0..n), b: rng.gen_range(0..n) }
            } else {
                Move::Migrate {
                    rank: rng.gen_range(0..n),
                    to: HostId(rng.gen_range(0..host_count)),
                }
            };
            let before_cost = cost.cost();
            if cost.apply(mv).is_err() {
                prop_assert_eq!(cost.cost(), before_cost);
                continue;
            }
            prop_assert_eq!(cost.clocks(), &cost.oracle_clocks()[..],
                "ring-heavy delta diverged from the oracle after {:?}", mv);
            if rng.gen_range(0u32..3) == 0 {
                cost.undo();
                prop_assert_eq!(cost.cost(), before_cost);
                prop_assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
            } else {
                cost.commit();
            }
        }
    }

    /// The cross-job warm-reuse contract (`PlacementCost::rebase`): after
    /// any interleaving of occupancy churn — other jobs occupying and
    /// releasing cores between arrivals — and committed local moves, a
    /// rebased warm evaluator must be indistinguishable from a fresh build
    /// at the same placement and capacities: same makespan, same per-rank
    /// clocks, and the same answer to every subsequent move.
    #[test]
    fn rebased_warm_cache_equals_fresh_build_after_occupancy_churn(
        n in 2u32..11,
        program_seed in 0u64..1_000_000,
        churn_seed in 0u64..1_000_000,
    ) {
        let topology = topology();
        let mut b = ScheduleBuilder::new(n);
        random_program(&mut b, program_seed);
        let schedule = Arc::new(b.finish());
        let full: Vec<u32> = topology.hosts().iter().map(|h| h.cores as u32).collect();
        let host_count = topology.host_count();
        let mut rng = seeded(churn_seed);

        // Boot the warm evaluator once, on the unconstrained grid.
        let boot_seed = rng.gen::<u64>();
        let mut warm = PlacementCost::new(
            schedule.clone(),
            random_feasible_hosts(&topology, n, boot_seed),
            full.clone(),
            NetworkModel::new(topology.clone()),
            ComputeModel::new(topology.clone()),
        );

        for _round in 0..4 {
            // New arrival: every host's free capacity has moved anywhere
            // from wholly busy to wholly free since last time, re-rolled
            // until the grid can still hold the job.
            let caps: Vec<u32> = loop {
                let caps: Vec<u32> = full.iter().map(|&c| rng.gen_range(0..=c)).collect();
                if caps.iter().map(|&c| u64::from(c)).sum::<u64>() >= u64::from(n) {
                    break caps;
                }
            };
            // A feasible placement under the new occupancy.
            let mut free = caps.clone();
            let hosts: Vec<HostId> = (0..n)
                .map(|_| loop {
                    let h = rng.gen_range(0..free.len());
                    if free[h] > 0 {
                        free[h] -= 1;
                        break HostId(h);
                    }
                })
                .collect();

            let warm_makespan = warm.rebase(&hosts, &caps);
            let mut fresh = PlacementCost::new(
                schedule.clone(),
                hosts.clone(),
                caps.clone(),
                NetworkModel::new(topology.clone()),
                ComputeModel::new(topology.clone()),
            );
            prop_assert_eq!(warm_makespan, fresh.cost());
            prop_assert_eq!(warm.cost(), fresh.cost());
            prop_assert_eq!(warm.hosts(), fresh.hosts());
            prop_assert_eq!(warm.clocks(), fresh.clocks());

            // Not just numerically right at rest: the warm cache must be
            // the same evaluator state, agreeing move for move (accepted,
            // rejected, undone or committed) until the next arrival.
            for _ in 0..4 {
                let mv = if rng.gen_range(0u32..2) == 0 {
                    Move::Swap {
                        a: rng.gen_range(0..n),
                        b: rng.gen_range(0..n),
                    }
                } else {
                    Move::Migrate {
                        rank: rng.gen_range(0..n),
                        to: HostId(rng.gen_range(0..host_count)),
                    }
                };
                match (warm.apply(mv), fresh.apply(mv)) {
                    (Ok(wc), Ok(fc)) => {
                        prop_assert_eq!(wc, fc, "accepted {:?} priced differently", mv);
                        prop_assert_eq!(warm.clocks(), fresh.clocks());
                        if rng.gen_range(0u32..3) == 0 {
                            warm.undo();
                            fresh.undo();
                        } else {
                            warm.commit();
                            fresh.commit();
                        }
                    }
                    (Err(_), Err(_)) => {}
                    (w, f) => prop_assert!(
                        false,
                        "warm {:?} vs fresh {:?} disagreed on {:?}",
                        w,
                        f,
                        mv
                    ),
                }
            }
        }
    }

    /// The stale-scratch hazard of state cached per host assignment (the
    /// ring set-up: sites, co-located pairs, `Uniform` row expansions):
    /// apply a move, undo it, then apply a *different* move, on
    /// ring-heavy schedules — and re-park the evaluator with `rehome` or
    /// `rebase` between rounds, so the first move after a re-park runs on
    /// set-up the re-park must have invalidated.  Every step is checked
    /// against a fresh replay.
    #[test]
    fn ring_heavy_undo_then_other_move_and_rebase_equal_full_replay(
        n in 8u32..21,
        placement_seed in 0u64..1_000_000,
        program_seed in 0u64..1_000_000,
        move_seed in 0u64..1_000_000,
    ) {
        let topology = topology();
        let mut b = ScheduleBuilder::new(n);
        ring_heavy_program(&mut b, program_seed);
        let schedule = Arc::new(b.finish());
        let full: Vec<u32> = topology.hosts().iter().map(|h| h.cores as u32).collect();
        let mut cost = PlacementCost::new(
            schedule,
            random_feasible_hosts(&topology, n, placement_seed),
            full.clone(),
            NetworkModel::new(topology.clone()),
            ComputeModel::new(topology.clone()),
        );
        let mut rng = seeded(move_seed);
        let host_count = topology.host_count();
        for round in 0..4 {
            for _ in 0..3 {
                let first = random_move(&mut rng, n, host_count);
                let before_cost = cost.cost();
                let before_clocks = cost.clocks().to_vec();
                if cost.apply(first).is_ok() {
                    prop_assert_eq!(cost.clocks(), &cost.oracle_clocks()[..],
                        "diverged after {:?}", first);
                    cost.undo();
                    prop_assert_eq!(cost.cost(), before_cost);
                    prop_assert_eq!(cost.clocks(), &before_clocks[..]);
                }
                let second = loop {
                    let mv = random_move(&mut rng, n, host_count);
                    if mv != first {
                        break mv;
                    }
                };
                if cost.apply(second).is_ok() {
                    prop_assert_eq!(cost.clocks(), &cost.oracle_clocks()[..],
                        "diverged after undoing {:?} then applying {:?}", first, second);
                    if rng.gen_range(0u32..2) == 0 {
                        cost.undo();
                        prop_assert_eq!(cost.clocks(), &before_clocks[..]);
                    } else {
                        cost.commit();
                    }
                }
            }
            // Re-park: alternately a rehome under the current capacities
            // and a rebase under full ones, onto a fresh random placement.
            let hosts = random_feasible_hosts(&topology, n, rng.gen());
            if round % 2 == 0 {
                cost.rehome(&hosts);
            } else {
                cost.rebase(&hosts, &full);
            }
            prop_assert_eq!(cost.hosts(), &hosts[..]);
            prop_assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
            let mv = random_move(&mut rng, n, host_count);
            if cost.apply(mv).is_ok() {
                prop_assert_eq!(cost.clocks(), &cost.oracle_clocks()[..],
                    "diverged on the first move {:?} after a re-park", mv);
                cost.commit();
            }
        }
    }

    /// Several tree byte classes across several `Msgs` segments, next to a
    /// per-pair ring: delta == replay after every move, undo and commit.
    #[test]
    fn multi_class_trees_and_per_pair_ring_equal_full_replay(
        n in 2u32..17,
        placement_seed in 0u64..1_000_000,
        program_seed in 0u64..1_000_000,
        move_seed in 0u64..1_000_000,
    ) {
        let topology = topology();
        let mut b = ScheduleBuilder::new(n);
        multi_class_tree_program(&mut b, program_seed);
        let schedule = Arc::new(b.finish());
        let capacity: Vec<u32> = topology.hosts().iter().map(|h| h.cores as u32).collect();
        let mut cost = PlacementCost::new(
            schedule,
            random_feasible_hosts(&topology, n, placement_seed),
            capacity,
            NetworkModel::new(topology.clone()),
            ComputeModel::new(topology.clone()),
        );
        prop_assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
        let mut rng = seeded(move_seed);
        let host_count = topology.host_count();
        for _ in 0..12 {
            let mv = random_move(&mut rng, n, host_count);
            let before_clocks = cost.clocks().to_vec();
            if cost.apply(mv).is_err() {
                prop_assert_eq!(cost.clocks(), &before_clocks[..]);
                continue;
            }
            prop_assert_eq!(cost.clocks(), &cost.oracle_clocks()[..],
                "multi-class delta diverged from the oracle after {:?}", mv);
            if rng.gen_range(0u32..3) == 0 {
                cost.undo();
                prop_assert_eq!(cost.clocks(), &before_clocks[..]);
                prop_assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
            } else {
                cost.commit();
            }
        }
    }
}

/// A 4-site, 80-host, 320-core grid — big enough to place 256 ranks, with
/// distinct inter-site RTTs so moved ranks change transfer-table rows.
fn soak_topology() -> Arc<Topology> {
    let mut b = TopologyBuilder::new();
    let sites: Vec<_> = (0..4).map(|i| b.add_site(format!("s{i}"))).collect();
    for (i, &s) in sites.iter().enumerate() {
        b.add_cluster(
            s,
            format!("c{i}"),
            "cpu",
            20,
            NodeSpec {
                cores: 4,
                ops_per_sec: 1.0e9 + i as f64 * 2.5e8,
                ..NodeSpec::default()
            },
        );
    }
    for i in 0..sites.len() {
        for j in (i + 1)..sites.len() {
            b.set_rtt(
                sites[i],
                sites[j],
                p2pmpi_simgrid::time::SimDuration::from_millis(5 + 4 * (i + j) as u64),
            );
        }
    }
    b.set_bandwidth(sites[0], sites[3], 1e9);
    Arc::new(b.build())
}

/// IS's per-iteration collective shape (allreduce + alltoall + balanced
/// alltoallv + compute), inlined here so the `p2pmpi-mpi` test suite can
/// soak the evaluator at IS scale without depending on `p2pmpi-nas`.  The
/// balanced alltoallv compresses to a pooled transfer table; the trailing
/// allgather keeps a non-ring segment downstream of every ring.
fn is_shaped_program<P: CollectiveProgram>(p: &mut P, iterations: u32) {
    let n = p.size();
    let keys: u64 = 1 << 18;
    let buckets: u64 = 1 << 10;
    for _ in 0..iterations {
        p.allreduce(buckets * 8);
        p.alltoall(8);
        p.alltoallv(move |src, _| {
            let share = keys / n as u64 + u64::from((src as u64) < keys % n as u64);
            (share / n as u64) * 4
        });
        p.compute(MemoryIntensity::MEMORY_BOUND, move |r| {
            (keys / n as u64 + u64::from((r as u64) < keys % n as u64)) as f64 * 50.0
        });
    }
    p.allgather(|_| 3 * 8);
}

/// Deterministic 256-rank soak: an IS-shaped schedule on an 80-host grid,
/// a fixed swap/migrate walk with undo sprinkled in, and a full `ModelComm`
/// replay after **every** accepted move.  This is the at-scale pin of the
/// tentpole contract — the pooled-table wavefront must match the oracle bit
/// for bit at the rank counts the search actually runs.
#[test]
fn is_shaped_soak_at_256_matches_oracle() {
    let topology = soak_topology();
    let n: u32 = 256;
    let mut b = ScheduleBuilder::new(n);
    is_shaped_program(&mut b, 3);
    let schedule = Arc::new(b.finish());
    let hosts = random_feasible_hosts(&topology, n, 0xC0FFEE);
    let capacity: Vec<u32> = topology.hosts().iter().map(|h| h.cores as u32).collect();
    let mut cost = PlacementCost::new(
        schedule,
        hosts,
        capacity,
        NetworkModel::new(topology.clone()),
        ComputeModel::new(topology.clone()),
    );
    assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);

    let mut rng = seeded(2008);
    let host_count = topology.host_count();
    let mut accepted = 0u32;
    for step in 0..24 {
        let mv = if rng.gen_range(0u32..2) == 0 {
            Move::Swap {
                a: rng.gen_range(0..n),
                b: rng.gen_range(0..n),
            }
        } else {
            Move::Migrate {
                rank: rng.gen_range(0..n),
                to: HostId(rng.gen_range(0..host_count)),
            }
        };
        let before_cost = cost.cost();
        let before_hosts = cost.hosts().to_vec();
        if cost.apply(mv).is_err() {
            assert_eq!(cost.cost(), before_cost);
            assert_eq!(cost.hosts(), &before_hosts[..]);
            continue;
        }
        accepted += 1;
        assert_eq!(
            cost.clocks(),
            &cost.oracle_clocks()[..],
            "soak step {step}: delta diverged from the oracle after {mv:?}"
        );
        if step % 3 == 0 {
            cost.undo();
            assert_eq!(cost.cost(), before_cost);
            assert_eq!(cost.hosts(), &before_hosts[..]);
            assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
        } else {
            cost.commit();
        }
    }
    // Most migrates land on full hosts (320 cores hold 256 ranks), so a
    // third of the walk surviving is the realistic floor.
    assert!(accepted >= 8, "the walk barely moved ({accepted} accepted)");
}
