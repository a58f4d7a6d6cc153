//! Soundness of the kernel-cost memo's shape key on random Table-1
//! placements: renaming hosts within their clusters must hit the memo and
//! cost bit-identically, co-locating ranks or moving a rank to another
//! cluster must miss, and every memo answer must equal the direct costing.

use p2pmpi_bench::experiments::{
    run_kernel_on_placement, Fig4Kernel, Fig4Settings, KernelCostMemo,
};
use p2pmpi_core::strategy::StrategyKind;
use p2pmpi_grid5000::testbed::topology_from_specs;
use p2pmpi_grid5000::TABLE1;
use p2pmpi_mpi::placement::Placement;
use p2pmpi_simgrid::rngutil::seeded;
use p2pmpi_simgrid::time::SimDuration;
use p2pmpi_simgrid::topology::{HostId, Topology};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

const KERNELS: [Fig4Kernel; 3] = [Fig4Kernel::Ep, Fig4Kernel::Is, Fig4Kernel::Ft];

fn settings() -> Fig4Settings {
    Fig4Settings::default().modeled()
}

fn direct(kernel: Fig4Kernel, placement: &Placement, topology: &Arc<Topology>) -> SimDuration {
    run_kernel_on_placement(
        kernel,
        StrategyKind::Concentrate,
        placement,
        topology,
        &settings(),
    )
    .makespan
}

/// `n` ranks on random hosts, each host filled with up to `fill` ranks (at
/// most its cores), then the ranks shuffled over the resulting slots.
fn random_placement(topology: &Topology, n: u32, rng: &mut impl Rng) -> Placement {
    let mut hosts: Vec<HostId> = topology.hosts().iter().map(|h| h.id).collect();
    hosts.shuffle(rng);
    let fill = rng.gen_range(1..=4usize);
    let mut slots = Vec::with_capacity(n as usize);
    'fill: for h in hosts {
        for _ in 0..fill.min(topology.host(h).cores) {
            slots.push(h);
            if slots.len() == n as usize {
                break 'fill;
            }
        }
    }
    slots.shuffle(rng);
    Placement::one_per_host(&slots)
}

/// The same placement with every host renamed to a distinct host of its
/// own cluster (a random permutation within each cluster).
fn remap_within_clusters(topology: &Topology, p: &Placement, rng: &mut impl Rng) -> Placement {
    let mut rename: HashMap<HostId, HostId> = HashMap::new();
    for cluster in topology.clusters() {
        let members: Vec<HostId> = topology
            .hosts_in_cluster(cluster.id)
            .map(|h| h.id)
            .collect();
        let mut shuffled = members.clone();
        shuffled.shuffle(rng);
        rename.extend(members.into_iter().zip(shuffled));
    }
    let mut q = p.clone();
    for spec in &mut q.procs {
        spec.host = rename[&spec.host];
    }
    q
}

#[test]
fn the_shape_key_is_sound_on_random_table1_placements() {
    let topology = topology_from_specs(TABLE1);
    let mut rng = seeded(0x5EED);
    let mut renamed_hosts = 0usize;
    for &kernel in &KERNELS {
        for _ in 0..8 {
            let n = rng.gen_range(8..=128u32);
            let mut memo = KernelCostMemo::new(topology.clone(), settings());
            let mut costed = 0u64;
            let mut check = |p: &Placement, memo: &mut KernelCostMemo, hit: bool, what: &str| {
                let want = direct(kernel, p, &topology);
                assert_eq!(memo.makespan(kernel, p), want, "{kernel:?}@{n} {what}");
                if !hit {
                    costed += 1;
                }
                assert_eq!(
                    memo.costings(),
                    costed,
                    "{kernel:?}@{n} {what}: hit = {hit}"
                );
                want
            };

            let base = random_placement(&topology, n, &mut rng);
            let base_cost = check(&base, &mut memo, false, "base");
            assert_eq!(memo.makespan(kernel, &base), base_cost, "repeat");

            // Renaming hosts within clusters keeps the key and the cost.
            let renamed = remap_within_clusters(&topology, &base, &mut rng);
            renamed_hosts += base
                .procs
                .iter()
                .zip(&renamed.procs)
                .filter(|(a, b)| a.host != b.host)
                .count();
            assert_eq!(check(&renamed, &mut memo, true, "renamed"), base_cost);

            // Co-locating two ranks that were apart changes the key.  Move
            // a rank whose host keeps another resident when there is one,
            // so the set of hosts used stays the same.
            let host = |r: usize| base.procs[r].host;
            let b = (0..n as usize)
                .find(|&r| (0..n as usize).any(|o| o != r && host(o) == host(r)))
                .unwrap_or(0);
            let a = (0..n as usize)
                .find(|&a| host(a) != host(b))
                .expect("random placements of 8+ ranks use two hosts");
            let mut colocated = base.clone();
            colocated.procs[b].host = base.procs[a].host;
            check(&colocated, &mut memo, false, "co-located");

            // Moving a rank to an unused host of another cluster changes it.
            let r = rng.gen_range(0..n as usize);
            let from = topology.host(base.procs[r].host).cluster;
            let used: Vec<HostId> = base.procs.iter().map(|p| p.host).collect();
            let to = topology
                .hosts()
                .iter()
                .find(|h| h.cluster != from && !used.contains(&h.id))
                .expect("Table 1 has spare hosts in other clusters")
                .id;
            let mut moved = base.clone();
            moved.procs[r].host = to;
            check(&moved, &mut memo, false, "moved across clusters");
        }
    }
    assert!(renamed_hosts > 0, "the remap never renamed a host");
}

#[test]
fn the_key_sees_which_ranks_share_a_host() {
    // The same two hosts of one cluster, first used in the same order, but
    // grouping the ranks differently: a different shape.
    let topology = topology_from_specs(TABLE1);
    let (x, y) = (HostId(0), HostId(1));
    assert_eq!(topology.host(x).cluster, topology.host(y).cluster);
    let mut memo = KernelCostMemo::new(topology.clone(), settings());
    for (i, hosts) in [[x, x, y, y], [x, y, x, y]].iter().enumerate() {
        let p = Placement::one_per_host(hosts);
        let want = direct(Fig4Kernel::Is, &p, &topology);
        assert_eq!(memo.makespan(Fig4Kernel::Is, &p), want);
        assert_eq!(memo.costings(), i as u64 + 1, "{hosts:?} hit the memo");
    }
}

#[test]
fn a_day_of_random_placements_matches_direct_costing() {
    // Few distinct shapes repeated many times, as on a day: every answer
    // equals the direct call, and only distinct shapes are costed.
    let topology = topology_from_specs(TABLE1);
    let mut rng = seeded(2008);
    let mut memo = KernelCostMemo::new(topology.clone(), settings());
    let shapes: Vec<(Fig4Kernel, Placement)> = (0..12)
        .map(|i| {
            let n = [8, 16, 32, 64, 128][i % 5];
            (KERNELS[i % 3], random_placement(&topology, n, &mut rng))
        })
        .collect();
    for _ in 0..4 {
        for (kernel, p) in &shapes {
            let p = remap_within_clusters(&topology, p, &mut rng);
            assert_eq!(memo.makespan(*kernel, &p), direct(*kernel, &p, &topology));
        }
    }
    assert!(memo.costings() <= shapes.len() as u64);
}

#[test]
#[should_panic(expected = "unreplicated")]
fn replicated_placements_are_rejected_like_the_direct_call() {
    let topology = topology_from_specs(TABLE1);
    let hosts: Vec<HostId> = (0..4).map(HostId).collect();
    let p = Placement::replicated_round_robin(4, 2, &hosts);
    KernelCostMemo::new(topology, settings()).makespan(Fig4Kernel::Ep, &p);
}

#[test]
#[should_panic(expected = "modeled backend only")]
fn the_memo_refuses_executed_settings() {
    KernelCostMemo::new(topology_from_specs(TABLE1), Fig4Settings::default());
}
