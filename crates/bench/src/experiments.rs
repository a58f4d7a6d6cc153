//! Experiment drivers shared by the figure-regeneration binaries and the
//! integration tests.

use p2pmpi_core::prelude::*;
use p2pmpi_grid5000::scenario::{coallocation_sweep, paper_demand_steps, SweepRow};
use p2pmpi_grid5000::sites::{scale_factor_for_cores, scaled_table1};
use p2pmpi_grid5000::testbed::{grid5000_testbed, topology_from_specs};
use p2pmpi_mpi::model::CollectiveBackend;
use p2pmpi_mpi::placement::Placement;
use p2pmpi_mpi::runtime::MpiRuntime;
use p2pmpi_nas::classes::Class;
use p2pmpi_nas::ep::{ep_kernel, ep_model, EpConfig};
use p2pmpi_nas::ft::{ft_model, FtConfig};
use p2pmpi_nas::is::{is_kernel, is_model, IsConfig};
use p2pmpi_simgrid::memory::MemoryContentionModel;
use p2pmpi_simgrid::noise::NoiseModel;
use p2pmpi_simgrid::time::SimDuration;
use p2pmpi_simgrid::topology::{HostId, Topology};
use std::collections::HashMap;
use std::sync::Arc;

/// Runs the Figure 2 / Figure 3 co-allocation sweep (100..600 processes by
/// 50) for a strategy, with the given probe-noise sigma (0 disables noise).
pub fn fig2_fig3_sweep(strategy: StrategyKind, seed: u64, noise_sigma: f64) -> Vec<SweepRow> {
    let noise = if noise_sigma == 0.0 {
        NoiseModel::disabled()
    } else {
        NoiseModel::with_sigma(noise_sigma)
    };
    coallocation_sweep(strategy, &paper_demand_steps(), seed, noise)
}

/// Which NAS kernel a Figure 4 run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig4Kernel {
    /// Embarrassingly Parallel (Figure 4, left).
    Ep,
    /// Integer Sort (Figure 4, right).
    Is,
    /// Fourier Transform (extension; model-only — the paper never ran FT,
    /// but its global transpose is the alltoall-heavy pattern the placement
    /// search targets at scale).
    Ft,
}

impl Fig4Kernel {
    /// Program name used on the `p2pmpirun` command line.
    pub fn program(&self) -> &'static str {
        match self {
            Fig4Kernel::Ep => "NAS.EP",
            Fig4Kernel::Is => "NAS.IS",
            Fig4Kernel::Ft => "NAS.FT",
        }
    }
}

/// Knobs of a Figure 4 style run.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Settings {
    /// NAS problem class (the paper uses B).
    pub class: Class,
    /// EP sampling divisor (the charged time stays class-accurate; see
    /// `p2pmpi-nas`).  EP class B generates 2^30 pairs, so some sampling is
    /// needed to keep wall-clock time reasonable.
    pub ep_sample_divisor: u64,
    /// IS sampling divisor (1 = sort the full key array).
    pub is_sample_divisor: u64,
    /// RNG seed for the testbed (probe noise).
    pub seed: u64,
    /// Override of the memory-contention coefficient (ablation); `None`
    /// keeps the default model.
    pub contention_alpha: Option<f64>,
    /// How collectives are costed: executed thread-per-rank (the default) or
    /// the LogGP analytical model (`p2pmpi_mpi::model`), which scales to
    /// thousands of ranks.
    pub backend: CollectiveBackend,
}

impl Default for Fig4Settings {
    fn default() -> Self {
        Fig4Settings {
            class: Class::B,
            ep_sample_divisor: 512,
            is_sample_divisor: 8,
            seed: 42,
            contention_alpha: None,
            backend: CollectiveBackend::Executed,
        }
    }
}

impl Fig4Settings {
    /// A configuration small enough for unit/integration tests.
    pub fn test_sized() -> Self {
        Fig4Settings {
            class: Class::S,
            ep_sample_divisor: 16,
            is_sample_divisor: 4,
            seed: 7,
            contention_alpha: None,
            backend: CollectiveBackend::Executed,
        }
    }

    /// The same settings with the analytical backend selected.
    pub fn modeled(mut self) -> Self {
        self.backend = CollectiveBackend::Modeled;
        self
    }
}

/// One measured point of Figure 4.
#[derive(Debug, Clone)]
pub struct Fig4Point {
    /// Number of MPI processes.
    pub processes: u32,
    /// Allocation strategy used.
    pub strategy: StrategyKind,
    /// Distinct hosts the job ran on.
    pub hosts_used: usize,
    /// Virtual execution time of the kernel.
    pub makespan: SimDuration,
    /// Whether the kernel's own verification passed.
    pub verified: bool,
}

/// Measures the kernel's virtual execution time for each process count under
/// one allocation strategy, on a fresh Grid'5000 testbed per point (as in
/// the paper, each point is an independent run).
pub fn fig4_kernel_times(
    kernel: Fig4Kernel,
    strategy: StrategyKind,
    counts: &[u32],
    settings: &Fig4Settings,
) -> Vec<Fig4Point> {
    counts
        .iter()
        .map(|&n| run_kernel_once(kernel, strategy, n, settings))
        .collect()
}

/// Allocates `n` processes with `strategy` on a fresh testbed and runs the
/// kernel once, returning the measured point.
///
/// The collectives are costed by `settings.backend`: executed thread-per-rank
/// or the analytical model (a modeled point carries `verified = true`, since
/// the model computes clocks, not data — there is no numerical result to
/// check).  Either way the placement comes from a real co-allocation on the
/// overlay, so the two backends are directly comparable point by point.
pub fn run_kernel_once(
    kernel: Fig4Kernel,
    strategy: StrategyKind,
    n: u32,
    settings: &Fig4Settings,
) -> Fig4Point {
    let mut tb = grid5000_testbed(settings.seed.wrapping_add(n as u64), NoiseModel::default());
    let request = JobRequest::new(n, strategy, kernel.program());
    let report = allocate(&mut tb.overlay, tb.submitter, &request);
    let allocation = report.allocation().clone();
    let placement = Placement::from_allocation(&allocation);
    run_kernel_on_placement(kernel, strategy, &placement, &tb.topology, settings)
}

/// Runs (or models) the kernel once over an explicit placement; `strategy`
/// only labels the resulting point (the placement already encodes it).
pub fn run_kernel_on_placement(
    kernel: Fig4Kernel,
    strategy: StrategyKind,
    placement: &Placement,
    topology: &Arc<Topology>,
    settings: &Fig4Settings,
) -> Fig4Point {
    let (makespan, verified) = kernel_makespan(kernel, placement, topology, settings);
    Fig4Point {
        processes: placement.processes,
        strategy,
        hosts_used: placement.hosts_used(),
        makespan,
        verified,
    }
}

/// The kernel's virtual makespan on `placement` and whether its own
/// verification passed (always `true` under the modeled backend).
fn kernel_makespan(
    kernel: Fig4Kernel,
    placement: &Placement,
    topology: &Arc<Topology>,
    settings: &Fig4Settings,
) -> (SimDuration, bool) {
    let mut runtime = MpiRuntime::new(topology.clone()).with_backend(settings.backend);
    if let Some(alpha) = settings.contention_alpha {
        runtime = runtime.with_contention(MemoryContentionModel::with_alpha(alpha));
    }

    match (settings.backend, kernel) {
        (CollectiveBackend::Executed, Fig4Kernel::Ep) => {
            let config = EpConfig::sampled(settings.class, settings.ep_sample_divisor);
            let result = runtime.run(placement, move |comm| ep_kernel(comm, &config));
            let ok = result.all_ranks_completed()
                && result.result_of(0).map(|r| r.verify()).unwrap_or(false);
            (result.makespan, ok)
        }
        (CollectiveBackend::Executed, Fig4Kernel::Is) => {
            let config = IsConfig::sampled(settings.class, settings.is_sample_divisor);
            let result = runtime.run(placement, move |comm| is_kernel(comm, &config));
            let ok = result.all_ranks_completed()
                && result.result_of(0).map(|r| r.verified).unwrap_or(false);
            (result.makespan, ok)
        }
        (CollectiveBackend::Modeled, Fig4Kernel::Ep) => {
            let config = EpConfig::sampled(settings.class, settings.ep_sample_divisor);
            let mut model = runtime.model_comm(placement);
            (ep_model(&mut model, &config), true)
        }
        (CollectiveBackend::Modeled, Fig4Kernel::Is) => {
            let config = IsConfig::sampled(settings.class, settings.is_sample_divisor);
            let mut model = runtime.model_comm(placement);
            (is_model(&mut model, &config), true)
        }
        (CollectiveBackend::Executed, Fig4Kernel::Ft) => {
            panic!("FT is model-only (no executed kernel); run it with --modeled")
        }
        (CollectiveBackend::Modeled, Fig4Kernel::Ft) => {
            let config = FtConfig::new(settings.class);
            let mut model = runtime.model_comm(placement);
            (ft_model(&mut model, &config), true)
        }
    }
}

/// Marks a host without a slot in [`KernelCostMemo`]'s scratch.
const UNSEEN: u32 = u32::MAX;

/// An exact memo of modeled kernel makespans, keyed by the *shape* of a
/// placement, so a day sweep costs each distinct shape once.
///
/// # Exactness contract
///
/// Under the modeled backend, [`run_kernel_on_placement`] reads, of a
/// placement, only which ranks share a host (co-location picks the
/// loopback transfer rule, and a host's resident count drives the
/// memory-contention slowdown) and, per distinct host, its site (RTT and
/// bandwidth to every other host) and its `ops_per_sec` (compute time).
/// Every host of a cluster is built from one node spec at one site, so a
/// host's [`ClusterId`](p2pmpi_simgrid::topology::ClusterId) fixes both.
/// The key therefore holds, as `u32`s:
///
/// * the kernel and the rank count;
/// * per rank, the first-occurrence index of its host;
/// * per distinct host, in first-occurrence order, its `ClusterId`.
///
/// Placements with equal keys differ only by renaming hosts within their
/// clusters and cost bit-identically.  The topology and [`Fig4Settings`]
/// are fixed when the memo is built, so it is never consulted under other
/// settings.  The costing builds a fresh `NetworkModel` per call, so
/// runtime network faults (slow-link latency factors) never reach it; if
/// costing ever becomes fault-aware, the key must grow to cover the fault
/// state.
#[derive(Debug)]
pub struct KernelCostMemo {
    topology: Arc<Topology>,
    settings: Fig4Settings,
    costs: HashMap<Box<[u32]>, SimDuration>,
    costings: u64,
    /// Scratch: the key under construction.
    key: Vec<u32>,
    /// Scratch: each host's first-occurrence index in the placement being
    /// keyed, [`UNSEEN`] otherwise.
    host_slot: Vec<u32>,
}

impl KernelCostMemo {
    /// An empty memo costing on `topology` under `settings`.
    ///
    /// # Panics
    ///
    /// Panics unless `settings` selects the modeled backend: executed runs
    /// also report a verification verdict, which a makespan memo drops.
    pub fn new(topology: Arc<Topology>, settings: Fig4Settings) -> Self {
        assert_eq!(
            settings.backend,
            CollectiveBackend::Modeled,
            "the kernel cost memo serves the modeled backend only"
        );
        let host_slot = vec![UNSEEN; topology.host_count()];
        KernelCostMemo {
            topology,
            settings,
            costs: HashMap::new(),
            costings: 0,
            key: Vec::new(),
            host_slot,
        }
    }

    /// The modeled makespan of `kernel` on `placement`: bit-identical to
    /// [`run_kernel_on_placement`]'s, costed only the first time its shape
    /// is seen.
    pub fn makespan(&mut self, kernel: Fig4Kernel, placement: &Placement) -> SimDuration {
        if !self.key_of(kernel, placement) {
            // Not a complete unreplicated cover: the direct costing rejects
            // it with the model's own message.
            return kernel_makespan(kernel, placement, &self.topology, &self.settings).0;
        }
        if let Some(&makespan) = self.costs.get(self.key.as_slice()) {
            return makespan;
        }
        let (makespan, _) = kernel_makespan(kernel, placement, &self.topology, &self.settings);
        self.costings += 1;
        self.costs.insert(self.key.as_slice().into(), makespan);
        makespan
    }

    /// Shapes costed so far (memo misses); every other call was a hit.
    pub fn costings(&self) -> u64 {
        self.costings
    }

    /// Writes `placement`'s shape key into `self.key`.  Returns `false`,
    /// leaving the key unusable, unless every rank appears exactly once
    /// with replica 0.
    fn key_of(&mut self, kernel: Fig4Kernel, placement: &Placement) -> bool {
        let n = placement.processes as usize;
        if placement.replication != 1 || placement.procs.len() != n {
            return false;
        }
        let key = &mut self.key;
        key.clear();
        key.extend([kernel as u32, n as u32]);
        // Each rank's host index first, rewritten to its slot below.
        key.resize(2 + n, UNSEEN);
        for p in &placement.procs {
            match key.get_mut(2 + p.rank as usize) {
                Some(h) if *h == UNSEEN && p.replica == 0 => *h = p.host.0 as u32,
                _ => return false,
            }
        }
        // Slots in first-occurrence order; each new host is appended,
        // then rewritten to its cluster once every rank is keyed.
        for r in 2..2 + n {
            let h = key[r] as usize;
            if self.host_slot[h] == UNSEEN {
                self.host_slot[h] = (key.len() - 2 - n) as u32;
                key.push(h as u32);
            }
            key[r] = self.host_slot[h];
        }
        for h in &mut key[2 + n..] {
            self.host_slot[*h as usize] = UNSEEN;
            *h = self.topology.host(HostId(*h as usize)).cluster.0 as u32;
        }
        true
    }
}

/// Host booking order the co-allocator uses on an *idle* grid: ascending
/// application-level RTT from the Nancy submitter (the first Nancy host),
/// ties broken by host id.
pub fn hosts_by_rtt(topology: &Topology) -> Vec<HostId> {
    let submitter = topology
        .site_by_name("nancy")
        .map(|s| s.id)
        .unwrap_or_else(|| topology.sites()[0].id);
    let submitter_host = topology
        .hosts_at_site(submitter)
        .next()
        .expect("the submitter site has at least one host")
        .id;
    let mut hosts: Vec<HostId> = topology.hosts().iter().map(|h| h.id).collect();
    hosts.sort_by_key(|&h| (topology.rtt(submitter_host, h), h));
    hosts
}

/// The placement `strategy` produces on an idle grid, built directly from
/// the topology (no overlay booking round): *concentrate* fills each host to
/// its core count in RTT order, *spread* deals one process per host in RTT
/// order, wrapping only once every host is used.  This is what sweep-scale
/// modeled experiments use beyond the real grid's 1040-core capacity, where
/// a live co-allocation could never succeed.
///
/// # Panics
///
/// Panics if `n` exceeds the topology's total cores, or for the `Balanced`
/// strategy (not used by any Figure 4 experiment).
pub fn synthetic_placement(topology: &Topology, strategy: StrategyKind, n: u32) -> Placement {
    assert!(
        n as usize <= topology.total_cores(),
        "{n} processes exceed the grid's {} cores; scale the topology first",
        topology.total_cores()
    );
    let hosts = hosts_by_rtt(topology);
    let mut slots: Vec<HostId> = Vec::with_capacity(n as usize);
    match strategy {
        StrategyKind::Concentrate => {
            'outer: for &h in &hosts {
                for _ in 0..topology.host(h).cores {
                    slots.push(h);
                    if slots.len() == n as usize {
                        break 'outer;
                    }
                }
            }
        }
        StrategyKind::Spread => {
            let mut filled = vec![0usize; hosts.len()];
            'rounds: loop {
                for (i, &h) in hosts.iter().enumerate() {
                    if filled[i] < topology.host(h).cores {
                        filled[i] += 1;
                        slots.push(h);
                        if slots.len() == n as usize {
                            break 'rounds;
                        }
                    }
                }
            }
        }
        StrategyKind::Balanced { .. } | StrategyKind::Searched => {
            panic!("synthetic placements support concentrate and spread only")
        }
    }
    Placement::one_per_host(&slots)
}

/// Measures modeled kernel times for each process count under one strategy,
/// on a Table-1 grid scaled just enough to hold the largest count (see
/// [`p2pmpi_grid5000::sites::scaled_table1`]).  This is the sweep-scale
/// entry point: 1k–4k-rank points complete in seconds because no threads are
/// spawned and no payload bytes move.
pub fn modeled_kernel_times(
    kernel: Fig4Kernel,
    strategy: StrategyKind,
    counts: &[u32],
    settings: &Fig4Settings,
    scale: Option<usize>,
) -> Vec<Fig4Point> {
    let max = counts.iter().copied().max().unwrap_or(0) as usize;
    let factor = scale.unwrap_or_else(|| scale_factor_for_cores(max));
    let topology = topology_from_specs(&scaled_table1(factor));
    let settings = settings.modeled();
    counts
        .iter()
        .map(|&n| {
            let placement = synthetic_placement(&topology, strategy, n);
            run_kernel_on_placement(kernel, strategy, &placement, &topology, &settings)
        })
        .collect()
}

/// Like [`modeled_kernel_times`], but with the placement *searched* instead
/// of fixed: each count runs a parallel-chain annealing search
/// ([`crate::search::search_placement`]) on the same scaled Table-1 grid the
/// synthetic concentrate/spread placements use, so the three curves of a
/// `fig4_* --searched` run are directly comparable point by point.  The
/// returned makespan is the searched placement's modeled cost — never worse
/// than best-of(concentrate, spread) by construction.
pub fn searched_kernel_times(
    kernel: Fig4Kernel,
    counts: &[u32],
    settings: &Fig4Settings,
    scale: Option<usize>,
    params: &crate::search::SearchParams,
) -> Vec<Fig4Point> {
    let max = counts.iter().copied().max().unwrap_or(0) as usize;
    let factor = scale.unwrap_or_else(|| scale_factor_for_cores(max));
    let topology = topology_from_specs(&scaled_table1(factor));
    let settings = settings.modeled();
    counts
        .iter()
        .map(|&n| {
            crate::search::search_placement(&topology, kernel, n, &settings, params).to_fig4_point()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_kernel_metadata() {
        assert_eq!(Fig4Kernel::Ep.program(), "NAS.EP");
        assert_eq!(Fig4Kernel::Is.program(), "NAS.IS");
        assert_eq!(Fig4Kernel::Ft.program(), "NAS.FT");
        let d = Fig4Settings::default();
        assert_eq!(d.class, Class::B);
        assert!(d.ep_sample_divisor > 1);
        let t = Fig4Settings::test_sized();
        assert_eq!(t.class, Class::S);
    }

    #[test]
    fn small_ep_point_runs_and_verifies() {
        let settings = Fig4Settings {
            ep_sample_divisor: 1,
            ..Fig4Settings::test_sized()
        };
        let point = run_kernel_once(Fig4Kernel::Ep, StrategyKind::Concentrate, 8, &settings);
        assert_eq!(point.processes, 8);
        assert!(point.verified);
        assert!(point.makespan > SimDuration::ZERO);
        // 8 processes concentrate onto two quad-core Nancy nodes.
        assert_eq!(point.hosts_used, 2);
    }

    #[test]
    fn small_is_point_runs_and_verifies() {
        let settings = Fig4Settings::test_sized();
        let point = run_kernel_once(Fig4Kernel::Is, StrategyKind::Spread, 8, &settings);
        assert!(point.verified);
        assert_eq!(point.hosts_used, 8);
        assert!(point.makespan > SimDuration::ZERO);
    }

    #[test]
    fn synthetic_placements_mirror_the_strategies() {
        let topology = topology_from_specs(&scaled_table1(1));
        // 64 concentrated processes fill 16 quad-core Nancy nodes.
        let conc = synthetic_placement(&topology, StrategyKind::Concentrate, 64);
        assert_eq!(conc.hosts_used(), 16);
        assert!(conc.validate().is_ok());
        // 64 spread processes take one host each.
        let spread = synthetic_placement(&topology, StrategyKind::Spread, 64);
        assert_eq!(spread.hosts_used(), 64);
        // Spread wraps once every host is used.
        let wrapped = synthetic_placement(&topology, StrategyKind::Spread, 400);
        assert_eq!(wrapped.hosts_used(), 350);
    }

    #[test]
    #[should_panic(expected = "exceed the grid")]
    fn synthetic_placement_rejects_oversubscription() {
        let topology = topology_from_specs(&scaled_table1(1));
        synthetic_placement(&topology, StrategyKind::Spread, 1041);
    }

    #[test]
    fn modeled_ep_point_matches_executed_exactly() {
        // EP's communication is data-independent, so the analytical backend
        // must reproduce the executed virtual makespan bit-for-bit on the
        // same placement.
        let settings = Fig4Settings::test_sized();
        let executed = run_kernel_once(Fig4Kernel::Ep, StrategyKind::Concentrate, 8, &settings);
        let modeled = run_kernel_once(
            Fig4Kernel::Ep,
            StrategyKind::Concentrate,
            8,
            &settings.modeled(),
        );
        assert_eq!(modeled.makespan, executed.makespan);
        assert_eq!(modeled.hosts_used, executed.hosts_used);
        assert!(modeled.verified);
    }

    #[test]
    fn modeled_sweep_scales_past_grid_capacity() {
        // 2048 ranks exceed the paper grid's 1040 cores; the modeled sweep
        // auto-scales the Table-1 grid and still produces a point (this runs
        // in well under a second — the executed backend could not even spawn
        // the threads comfortably).
        let settings = Fig4Settings::test_sized();
        let points = modeled_kernel_times(
            Fig4Kernel::Ep,
            StrategyKind::Spread,
            &[2048],
            &settings,
            None,
        );
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].processes, 2048);
        assert!(points[0].makespan > SimDuration::ZERO);
        // scale factor 2 doubles the grid to 700 hosts; spread wraps them.
        assert_eq!(points[0].hosts_used, 700);
    }

    #[test]
    fn fig2_sweep_first_point_is_nancy_only_under_concentrate() {
        let rows = fig2_fig3_sweep(StrategyKind::Concentrate, 1, 0.0);
        assert_eq!(rows.len(), 11);
        let first = &rows[0];
        assert_eq!(first.demanded, 100);
        assert!(first.success);
        let nancy = first.usage.iter().find(|u| u.site_name == "nancy").unwrap();
        assert_eq!(nancy.processes, 100);
    }
}
