//! The sharded parallel sweep driver: week-scale traces partitioned into
//! per-site shard timelines that run concurrently between conservative
//! synchronization barriers.
//!
//! # Why shards
//!
//! The sequential sweep ([`crate::workload::run_day_sweep`]) is one
//! discrete-event timeline over all of Table 1; a week-scale trace at 10×
//! traffic is millions of timeline events and its wall-clock is bounded by
//! one core.  But the Grid'5000 workload is *mostly site-local*: a job
//! brokered from a site's submitter books hosts ordered by RTT, and the
//! overlay's periodic machinery (heartbeats, expiry sweeps, cache
//! refreshes, churn) never crosses sites at all.  The driver exploits that:
//! [`ShardPlan`] partitions the grid into site-aligned shards, each shard
//! gets its own [`crate::workload::SweepCore`] — overlay, event timeline,
//! allocator, RNG substreams, sharing **nothing** with its siblings — and
//! the shard timelines run on scoped threads between barriers.
//!
//! # The barrier protocol
//!
//! Every job of the trace is classified up front (a deterministic pre-pass
//! on its own RNG substream) as **shard-local** — submitted to its home
//! shard's core exactly as the sequential sweep would — or **cross-shard**
//! — needing capacity from more than one shard's sites.  Cross-shard jobs
//! are the only synchronization points:
//!
//! 1. **Advance.**  Every shard runs its own timeline — local
//!    submissions, completions, heartbeats, churn — up to the cross-shard
//!    job's arrival time `T`.  This is conservative lookahead in the
//!    classic sense: between barriers no shard can schedule an event on
//!    another shard's timeline, so `T` (the next cross arrival) is a safe
//!    horizon for every shard.  After advancing, each shard asserts the
//!    contract via the engine's reported safe horizon
//!    (`Overlay::run_until_horizon`): its earliest pending event must lie
//!    strictly after `T`.
//! 2. **Broker.**  On the coordinator thread, the job is brokered against
//!    the *merged view*: per-shard free-core estimates feed
//!    `StrategyKind::distribute_into`, each shard allocates its split
//!    all-or-nothing through its own allocator, and a refusal anywhere
//!    rolls back the shards already booked (their gatekeeper slots are
//!    freed immediately, as a completion would).  On success the
//!    sub-placements are merged onto a global Table-1 topology (ranks
//!    re-offset per shard) and the job's kernel is costed **once** on the
//!    merged placement, so a cross-shard job pays the real cross-site
//!    communication cost.
//! 3. **Scatter.**  The hold charges each shard's per-site ledger, and one
//!    completion event per involved shard is spliced back onto that
//!    shard's timeline (`Overlay::schedule_completion_batch`) at
//!    `T + hold`.  The next parallel phase begins.
//!
//! Shard order is fixed everywhere (classification, brokering, scatter,
//! merge), all coordinator work happens between joined phases, and shards
//! share no state — so the parallel driver is **bit-identical** to running
//! the same per-shard operation sequence on one thread
//! ([`ShardSweepConfig::parallel`] = false), and with one shard it
//! reproduces [`crate::workload::run_day_sweep`] bit-for-bit
//! (`tests/shard_sweep.rs` pins both).
//!
//! Site-scoped faults route to the owning shard; flash crowds reshape the
//! shared trace before classification; a supernode outage applies to every
//! shard's registry.  Wall-clock speedup comes from the parallel phases:
//! with a low cross-shard fraction the phases are long and the expected
//! speedup approaches the shard count (on hardware with that many cores).

use crate::experiments::{Fig4Settings, KernelCostMemo};
use crate::workload::{
    burst_profile, day_trace, sample_running, DaySweepConfig, DaySweepResult, FaultSpec, JobSpec,
    SweepCore, UtilisationSample,
};
use p2pmpi_core::allocation::{AllocatedHost, Allocation};
use p2pmpi_core::prelude::*;
use p2pmpi_grid5000::testbed::topology_from_specs;
use p2pmpi_grid5000::{ShardPlan, TABLE1};
use p2pmpi_mpi::placement::Placement;
use p2pmpi_overlay::{PeerId, RankAssignment, ReservationKey};
use p2pmpi_simgrid::event::EventKey;
use p2pmpi_simgrid::rngutil::{derive_seed, seeded};
use p2pmpi_simgrid::time::SimTime;
use p2pmpi_simgrid::topology::Topology;
use rand::Rng;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of one [`run_shard_sweep`] run.
#[derive(Debug, Clone)]
pub struct ShardSweepConfig {
    /// The sweep everything else is expressed against: profile, mix,
    /// strategy, queue kind, churn, faults, reap cadence.  With
    /// `shards == 1` the driver reproduces `run_day_sweep(&base)`
    /// bit-for-bit.
    pub base: DaySweepConfig,
    /// Number of site-aligned shards (see [`ShardPlan::partition`]).
    pub shards: usize,
    /// Fraction of jobs classified cross-shard (each one a barrier).
    /// Ignored at `shards == 1`, where every job is local.
    pub cross_fraction: f64,
    /// Run shard timelines on scoped threads between barriers.  `false`
    /// runs the identical per-shard operation sequence on one thread —
    /// same result bit-for-bit, the baseline for speedup measurements.
    pub parallel: bool,
}

impl ShardSweepConfig {
    /// `shards` shards over `base`, parallel, with a 5% cross-shard
    /// fraction.
    pub fn new(base: DaySweepConfig, shards: usize) -> Self {
        ShardSweepConfig {
            base,
            shards,
            cross_fraction: 0.05,
            parallel: true,
        }
    }
}

/// What a sharded sweep produced: the merged view plus per-shard detail.
#[derive(Debug, Clone)]
pub struct ShardSweepResult {
    /// The merged result, shaped exactly like a sequential
    /// [`DaySweepResult`] over the full grid: global site order,
    /// per-sample utilisation summed across shards, cross-shard jobs
    /// folded into the submission/outcome/timeout counts.
    pub merged: DaySweepResult,
    /// Each shard's own result, in shard order (site vectors are in the
    /// shard's local site order).
    pub per_shard: Vec<DaySweepResult>,
    /// Cross-shard jobs brokered at barriers.
    pub cross_submitted: usize,
    /// Cross-shard jobs placed (all shards of the split accepted).
    pub cross_succeeded: usize,
    /// Cross-shard jobs refused (infeasible split or a shard refusal —
    /// already-booked shards were rolled back).
    pub cross_failed: usize,
    /// Synchronization barriers executed (= cross-shard jobs in the trace).
    pub barriers: usize,
    /// Wall-clock time of the whole run (trace generation through merge).
    pub wall: std::time::Duration,
}

impl ShardSweepResult {
    /// Sustained event throughput: merged timeline events delivered per
    /// wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.merged.events_processed as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Sustained job throughput per wall-clock second.
    pub fn jobs_per_sec(&self) -> f64 {
        self.merged.submitted as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// One parallel phase's work for one shard, plus its barrier advance.
struct Segment {
    /// Shard-local jobs per shard, in arrival order.
    batches: Vec<Vec<JobSpec>>,
    /// The cross-shard job ending this segment (`None` for the tail).
    cross: Option<JobSpec>,
}

/// Cross-shard bookkeeping accumulated at barriers.
#[derive(Default)]
struct CrossStats {
    submitted: usize,
    succeeded: usize,
    failed: usize,
    timeouts: u64,
    hold_secs: f64,
    /// Shapes the cross-job memo costed (see [`KernelCostMemo`]).
    kernel_costings: u64,
}

/// Runs one shard's share of a parallel phase: submit the local batch,
/// then advance to the barrier and assert the safe-horizon contract.
fn run_segment(core: &mut SweepCore, batch: &[JobSpec], barrier: Option<SimTime>) {
    for job in batch {
        core.submit(job);
    }
    if let Some(at) = barrier {
        core.advance_to(at);
        // The conservative-lookahead contract: with the shard advanced to
        // the barrier, its earliest pending event lies strictly after it,
        // so brokering at the barrier cannot be invalidated by shard-local
        // work.  See the `p2pmpi_simgrid::event` queue-selection guide.
        let (_, horizon) = core.tb.overlay.run_until_horizon(at);
        assert!(
            horizon.is_none_or(|h| h > at),
            "shard timeline violated the safe-horizon contract at barrier {at:?}"
        );
    }
}

/// Brokers one cross-shard job at a barrier (every shard already advanced
/// to `job.at`): split, all-or-nothing per-shard allocation with rollback,
/// merged costing, scatter-back.
#[allow(clippy::too_many_arguments)]
fn broker_cross(
    cores: &mut [SweepCore],
    job: &JobSpec,
    base: &DaySweepConfig,
    global_topology: &Arc<Topology>,
    costs: &mut KernelCostMemo,
    stats: &mut CrossStats,
    scatter_keys: &mut Vec<EventKey>,
) {
    stats.submitted += 1;
    // The merged view: free cores per shard (capacity minus running work,
    // sampled from each quiesced shard at the barrier).
    let capacities: Vec<u32> = cores
        .iter()
        .map(|core| {
            let running: u32 = sample_running(&core.tb).iter().sum();
            (core.tb.topology.total_cores() as u32).saturating_sub(running)
        })
        .collect();
    let split = base.strategy.distribute(&capacities, job.ranks);
    if split.iter().sum::<u32>() != job.ranks {
        stats.failed += 1;
        return;
    }
    // All-or-nothing: each shard of the split books through its own
    // allocator; any refusal rolls back the shards already booked.
    let mut booked: Vec<(usize, ReservationKey, Allocation)> = Vec::new();
    let mut refused = false;
    for (s, &n) in split.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let core = &mut cores[s];
        let request = JobRequest::new(n, base.strategy, job.kernel.program());
        let report = core
            .allocator
            .allocate(&mut core.tb.overlay, core.tb.submitter, &request);
        stats.timeouts += report.dead as u64;
        match report.outcome {
            Ok(alloc) => booked.push((s, report.key, alloc)),
            Err(_) => {
                refused = true;
                break;
            }
        }
    }
    if refused {
        for (s, key, alloc) in &booked {
            let core = &mut cores[*s];
            for h in &alloc.hosts {
                core.tb.overlay.complete_job(h.peer, *key);
            }
        }
        stats.failed += 1;
        return;
    }
    // Merge the sub-placements onto the global topology (ranks re-offset
    // per shard) and cost the kernel once on the merged placement, so the
    // job pays its real cross-site communication.
    let mut hosts: Vec<AllocatedHost> = Vec::new();
    let mut offset = 0u32;
    for (s, _, alloc) in &booked {
        let shard_topology = &cores[*s].tb.topology;
        for h in &alloc.hosts {
            let name = &shard_topology.host(h.host).name;
            let global = global_topology
                .host_by_name(name)
                .unwrap_or_else(|| panic!("shard host '{name}' missing from the global topology"));
            hosts.push(AllocatedHost {
                peer: h.peer,
                host: global.id,
                capacity: h.capacity,
                ranks: h
                    .ranks
                    .iter()
                    .map(|ra| RankAssignment {
                        rank: ra.rank + offset,
                        replica: ra.replica,
                    })
                    .collect(),
            });
        }
        offset += alloc.processes;
    }
    let merged = Allocation {
        key: booked[0].1,
        processes: job.ranks,
        replication: 1,
        strategy: base.strategy,
        hosts,
    };
    let placement = Placement::from_allocation(&merged);
    let hold = costs
        .makespan(job.kernel, &placement)
        .mul_f64(base.duration_scale);
    stats.hold_secs += hold.as_secs_f64();
    // Scatter-back: charge each shard's ledger and splice one completion
    // event per involved shard onto its timeline at the common barrier
    // clock plus the hold.
    for (s, key, alloc) in &booked {
        let core = &mut cores[*s];
        core.charge_remote(alloc, hold);
        let done_at = core.tb.overlay.now() + hold;
        let peers: Vec<PeerId> = alloc.hosts.iter().map(|h| h.peer).collect();
        scatter_keys.clear();
        core.tb
            .overlay
            .schedule_completion_batch([(done_at, *key, peers)], scatter_keys);
    }
    stats.succeeded += 1;
}

/// Runs the sharded sweep.  See the module docs for the barrier protocol;
/// the `week_sweep` binary renders the result.
pub fn run_shard_sweep(cfg: &ShardSweepConfig) -> ShardSweepResult {
    let start = Instant::now();
    let base = &cfg.base;
    let plan = ShardPlan::partition(TABLE1, cfg.shards);
    let shards = plan.shard_count();

    // One shared trace, classified deterministically on its own RNG
    // substream: a home shard weighted by shard capacity, and (at > 1
    // shard) an independent cross-shard coin per job.
    let profile = burst_profile(&base.profile, &base.faults);
    let trace = day_trace(&profile, &base.mix, base.seed);
    let shard_cores = plan.cores_per_shard();
    let total_cores: usize = shard_cores.iter().sum();
    let mut class_rng = seeded(derive_seed(base.seed, 0x5C1A));
    let mut segments = vec![Segment {
        batches: vec![Vec::new(); shards],
        cross: None,
    }];
    let mut local_counts = vec![0usize; shards];
    for job in &trace {
        let draw = class_rng.gen_range(0..total_cores);
        let mut cum = 0usize;
        let mut home = 0usize;
        for (i, &c) in shard_cores.iter().enumerate() {
            cum += c;
            if draw < cum {
                home = i;
                break;
            }
        }
        let cross = shards > 1 && class_rng.gen::<f64>() < cfg.cross_fraction;
        let segment = segments.last_mut().expect("one open segment");
        if cross {
            segment.cross = Some(*job);
            segments.push(Segment {
                batches: vec![Vec::new(); shards],
                cross: None,
            });
        } else {
            local_counts[home] += 1;
            segment.batches[home].push(*job);
        }
    }
    let barriers = segments.len() - 1;

    // One SweepCore per shard: shard 0 keeps the base seed (with one shard
    // it *is* the sequential sweep), the rest derive independent noise and
    // churn substreams.  Combinator trees are flattened up front so each
    // primitive routes independently; site-scoped faults go to the owning
    // shard.
    let flat_faults = crate::workload::flatten_faults(&base.faults);
    let mut cores: Vec<SweepCore> = (0..shards)
        .map(|s| {
            let mut shard_cfg = base.clone();
            shard_cfg.faults = flat_faults
                .iter()
                .filter(|f| match f {
                    FaultSpec::FlashCrowd { .. } | FaultSpec::SupernodeOutage { .. } => true,
                    FaultSpec::SiteOutage { site, .. }
                    | FaultSpec::SlowLinks { site, .. }
                    | FaultSpec::PartialSite { site, .. } => {
                        plan.shard_of_site(site)
                            .unwrap_or_else(|| panic!("fault names unknown site '{site}'"))
                            == s
                    }
                    FaultSpec::Compose(_) | FaultSpec::PhaseShift { .. } => {
                        unreachable!("flatten_faults only yields primitives")
                    }
                })
                .cloned()
                .collect();
            let seed = if s == 0 {
                base.seed
            } else {
                derive_seed(base.seed, 0x5AD0 + s as u64)
            };
            SweepCore::new(&shard_cfg, plan.specs_for(s), seed, local_counts[s] / 2)
        })
        .collect();

    // The merged view cross-shard placements are costed on, with its own
    // memo (shard-local jobs cost on their shard's memo).
    let global_topology = topology_from_specs(TABLE1);
    let settings = Fig4Settings {
        seed: base.seed,
        ..Fig4Settings::default()
    }
    .modeled();
    let mut cross_costs = KernelCostMemo::new(global_topology.clone(), settings);

    let mut stats = CrossStats::default();
    let mut scatter_keys: Vec<EventKey> = Vec::new();
    for segment in &segments {
        let barrier = segment.cross.as_ref().map(|j| j.at);
        if cfg.parallel {
            std::thread::scope(|scope| {
                for (core, batch) in cores.iter_mut().zip(&segment.batches) {
                    // An empty batch with no barrier is a no-op; don't pay
                    // a thread for it.
                    if !batch.is_empty() || barrier.is_some() {
                        scope.spawn(move || run_segment(core, batch, barrier));
                    }
                }
            });
        } else {
            for (core, batch) in cores.iter_mut().zip(&segment.batches) {
                run_segment(core, batch, barrier);
            }
        }
        if let Some(job) = &segment.cross {
            broker_cross(
                &mut cores,
                job,
                base,
                &global_topology,
                &mut cross_costs,
                &mut stats,
                &mut scatter_keys,
            );
        }
    }

    // Drain every shard's tail (remaining samples, completions,
    // heartbeats) and close its books — in parallel too, it is the same
    // per-shard work.
    let horizon = SimTime::ZERO + base.profile.horizon();
    let per_shard: Vec<DaySweepResult> = if cfg.parallel {
        std::thread::scope(|scope| {
            let handles: Vec<_> = cores
                .into_iter()
                .map(|core| scope.spawn(move || core.finish(horizon)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard thread panicked"))
                .collect()
        })
    } else {
        cores.into_iter().map(|c| c.finish(horizon)).collect()
    };

    stats.kernel_costings = cross_costs.costings();
    let merged = merge_results(&per_shard, &stats, &global_topology);
    ShardSweepResult {
        merged,
        per_shard,
        cross_submitted: stats.submitted,
        cross_succeeded: stats.succeeded,
        cross_failed: stats.failed,
        barriers,
        wall: start.elapsed(),
    }
}

/// Folds per-shard results and cross-shard stats into one sequential-shaped
/// [`DaySweepResult`] in global site order.
fn merge_results(
    per_shard: &[DaySweepResult],
    stats: &CrossStats,
    global_topology: &Arc<Topology>,
) -> DaySweepResult {
    let site_names: Vec<String> = global_topology
        .sites()
        .iter()
        .map(|s| s.name.clone())
        .collect();
    let site_cores: Vec<usize> = global_topology
        .sites()
        .iter()
        .map(|s| global_topology.cores_at_site(s.id))
        .collect();
    // Shard-local site index -> global site index, by name.
    let maps: Vec<Vec<usize>> = per_shard
        .iter()
        .map(|r| {
            r.site_names
                .iter()
                .map(|n| {
                    site_names
                        .iter()
                        .position(|g| g == n)
                        .unwrap_or_else(|| panic!("shard site '{n}' missing globally"))
                })
                .collect()
        })
        .collect();

    // Shards sample on the same cadence to the same horizon, so their
    // sample trains line up instant for instant.
    let sample_count = per_shard[0].samples.len();
    let mut samples = Vec::with_capacity(sample_count);
    for k in 0..sample_count {
        let t = per_shard[0].samples[k].t;
        let mut running = vec![0u32; site_names.len()];
        for (r, map) in per_shard.iter().zip(&maps) {
            debug_assert_eq!(r.samples[k].t, t, "shard sample trains diverged");
            for (j, &v) in r.samples[k].running.iter().enumerate() {
                running[map[j]] += v;
            }
        }
        samples.push(UtilisationSample { t, running });
    }
    let mut core_seconds = vec![0.0f64; site_names.len()];
    for (r, map) in per_shard.iter().zip(&maps) {
        for (j, &v) in r.core_seconds.iter().enumerate() {
            core_seconds[map[j]] += v;
        }
    }

    // Binned core-second timelines merge like `core_seconds`, element-wise
    // on the shared bin grid (shards share the sample period; a shard that
    // charged less far into the tail just pads with zeros).
    let bin_secs = per_shard[0].bin_secs;
    let bin_count = per_shard
        .iter()
        .map(|r| r.site_core_bins.first().map_or(0, |s| s.len()))
        .max()
        .unwrap_or(0);
    let mut site_core_bins = vec![vec![0.0f64; bin_count]; site_names.len()];
    for (r, map) in per_shard.iter().zip(&maps) {
        debug_assert_eq!(r.bin_secs, bin_secs, "shard bin widths diverged");
        for (j, series) in r.site_core_bins.iter().enumerate() {
            for (b, &v) in series.iter().enumerate() {
                site_core_bins[map[j]][b] += v;
            }
        }
    }

    let succeeded = per_shard.iter().map(|r| r.succeeded).sum::<usize>() + stats.succeeded;
    let hold_total: f64 = per_shard
        .iter()
        .map(|r| r.mean_hold_secs * r.succeeded.max(1) as f64)
        .sum::<f64>()
        + stats.hold_secs;
    DaySweepResult {
        site_names,
        site_cores,
        samples,
        bin_secs,
        site_core_bins,
        core_seconds,
        submitted: per_shard.iter().map(|r| r.submitted).sum::<usize>() + stats.submitted,
        succeeded,
        failed: per_shard.iter().map(|r| r.failed).sum::<usize>() + stats.failed,
        timeouts: per_shard.iter().map(|r| r.timeouts).sum::<u64>() + stats.timeouts,
        mean_hold_secs: hold_total / succeeded.max(1) as f64,
        events_processed: per_shard.iter().map(|r| r.events_processed).sum(),
        virtual_end: per_shard
            .iter()
            .map(|r| r.virtual_end)
            .max()
            .expect("at least one shard"),
        events_capacity_mid: per_shard.iter().map(|r| r.events_capacity_mid).sum(),
        events_capacity_end: per_shard.iter().map(|r| r.events_capacity_end).sum(),
        rs_scratch_capacity_mid: per_shard.iter().map(|r| r.rs_scratch_capacity_mid).sum(),
        rs_scratch_capacity_end: per_shard.iter().map(|r| r.rs_scratch_capacity_end).sum(),
        jobs_killed: per_shard.iter().map(|r| r.jobs_killed).sum(),
        leaked_grants: per_shard.iter().map(|r| r.leaked_grants).sum(),
        leaked_grant_hwm: per_shard.iter().map(|r| r.leaked_grant_hwm).sum(),
        reaped_tickets: per_shard.iter().map(|r| r.reaped_tickets).sum(),
        dead_ticket_hwm: per_shard
            .iter()
            .map(|r| r.dead_ticket_hwm)
            .max()
            .expect("at least one shard"),
        // Per-shard search pools never merge: fold the counters when any
        // shard searched (the sharded driver defaults to fixed strategies,
        // so this is usually `None`).
        search: per_shard
            .iter()
            .filter_map(|r| r.search)
            .reduce(|mut a, b| {
                a.arrivals += b.arrivals;
                a.searched += b.searched;
                a.infeasible += b.infeasible;
                a.warm_rebases += b.warm_rebases;
                a.cold_builds += b.cold_builds;
                a.moves_evaluated += b.moves_evaluated;
                a.prepare_nanos += b.prepare_nanos;
                a.anneal_nanos += b.anneal_nanos;
                a
            }),
        kernel_costings: per_shard.iter().map(|r| r.kernel_costings).sum::<u64>()
            + stats.kernel_costings,
    }
}
