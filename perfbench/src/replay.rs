//! The traced replay: the submission loop of `run_day_sweep` rebuilt from
//! the workspace's public layer calls, each call timed from outside.
//!
//! Every span wraps one call into one layer at the driver level, so spans
//! never nest and a layer's self time is its span time.  Work counts are
//! taken at the same boundaries.  The replay must reproduce the untraced
//! sweep bit for bit; `main` checks that on every run.

use crate::outcome::Outcome;
use p2pmpi_bench::experiments::{run_kernel_on_placement, Fig4Settings};
use p2pmpi_bench::search::{OnlineSearchParams, SearchContext};
use p2pmpi_bench::workload::{day_trace, DaySweepConfig, JobSpec};
use p2pmpi_core::allocation::Allocation;
use p2pmpi_core::prelude::*;
use p2pmpi_grid5000::testbed::{testbed_from_specs_with_queue, Grid5000Testbed};
use p2pmpi_grid5000::TABLE1;
use p2pmpi_mpi::placement::Placement;
use p2pmpi_overlay::churn::flapping_churn;
use p2pmpi_overlay::ReservationKey;
use p2pmpi_simgrid::noise::NoiseModel;
use p2pmpi_simgrid::rngutil::{derive_seed, seeded};
use p2pmpi_simgrid::time::{SimDuration, SimTime};
use p2pmpi_simgrid::topology::{HostId, Topology};
use std::sync::Arc;
use std::time::Instant;

/// The kernel-model settings a sweep with master seed `seed` costs jobs
/// with.
pub fn sweep_settings(seed: u64) -> Fig4Settings {
    Fig4Settings {
        seed,
        ..Fig4Settings::default()
    }
    .modeled()
}

/// The online search context a searched sweep of `cfg` starts from.
pub fn search_context(cfg: &DaySweepConfig, topology: Arc<Topology>) -> SearchContext {
    let params = OnlineSearchParams {
        moves: cfg.search_moves,
        seed: derive_seed(cfg.seed, 0x0A11),
    };
    let mut ctx = SearchContext::new(topology, sweep_settings(cfg.seed), params);
    ctx.cold = cfg.search_cold;
    ctx
}

/// The layer boundaries the replay times, named after the workspace crates.
#[derive(Clone, Copy, Debug)]
pub enum Layer {
    /// `day_trace`: drawing the arrival trace.
    DayTrace,
    /// `testbed_from_specs_with_queue`: topology, overlay boot, discovery.
    TestbedBuild,
    /// Overlay switches, periodic behaviours and the churn schedule.
    Install,
    /// `Overlay::run_until` to each arrival and to the horizon.
    RunUntil,
    /// Advancing to each utilisation sample instant and reading it.
    Sample,
    /// The probe cadence: the due check and `Overlay::probe_round`.
    ProbeRound,
    /// The reap cadence: the tombstone count and `Overlay::reap_events`.
    ReapEvents,
    /// Building each job's request, with `SearchContext::searched_hosts`
    /// on a searched day (and the context's construction).
    Search,
    /// `CoAllocator::allocate`.
    Allocate,
    /// `run_kernel_on_placement`: the LogGP / NAS cost of a placement.
    KernelCost,
    /// Charging a hold to the core-second ledgers and scheduling its
    /// completion.
    Charge,
}

/// Number of [`Layer`]s.
const LAYERS: usize = Layer::Charge as usize + 1;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::DayTrace => "bench.day_trace",
            Layer::TestbedBuild => "grid5000.testbed_build",
            Layer::Install => "overlay.install",
            Layer::RunUntil => "overlay.run_until",
            Layer::Sample => "overlay.sample",
            Layer::ProbeRound => "overlay.probe_round",
            Layer::ReapEvents => "overlay.reap_events",
            Layer::Search => "bench.search",
            Layer::Allocate => "core.allocate",
            Layer::KernelCost => "mpi.kernel_cost",
            Layer::Charge => "bench.charge",
        }
    }
}

/// Span durations per layer, kept in memory until the run reports.
#[derive(Debug, Default)]
pub struct Spans {
    busy_ns: [u64; LAYERS],
    durations_ns: [Vec<u64>; LAYERS],
}

impl Spans {
    /// Closes a span of `layer` opened at `start`.
    fn record(&mut self, layer: Layer, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        self.busy_ns[layer as usize] += ns;
        self.durations_ns[layer as usize].push(ns);
    }

    /// Adds busy time to `layer` without counting a call (set-up work that
    /// would skew the layer's per-call percentiles).
    fn add_busy(&mut self, layer: Layer, start: Instant) {
        self.busy_ns[layer as usize] += start.elapsed().as_nanos() as u64;
    }

    pub fn busy_s(&self, layer: Layer) -> f64 {
        self.busy_ns[layer as usize] as f64 / 1e9
    }

    pub fn total_busy_s(&self) -> f64 {
        self.busy_ns.iter().sum::<u64>() as f64 / 1e9
    }

    pub fn durations_ns(&self, layer: Layer) -> &[u64] {
        &self.durations_ns[layer as usize]
    }
}

/// Work done at the span boundaries.  Deterministic for a seed.
#[derive(Debug, Default)]
pub struct Counts {
    pub kernel_calls: u64,
    pub kernel_ranks: u64,
    pub allocate_calls: u64,
    /// Timeline events delivered inside `allocate`.
    pub allocate_events: u64,
    pub booked: u64,
    pub granted: u64,
    pub refused: u64,
    pub dead: u64,
    pub run_until_calls: u64,
    pub run_until_events: u64,
    pub probe_rounds: u64,
    pub reaps: u64,
    pub reaped_tickets: u64,
    pub search_calls: u64,
}

/// One traced day.
pub struct TracedDay {
    pub outcome: Outcome,
    pub trace_len: usize,
    pub spans: Spans,
    pub counts: Counts,
    /// Host wall seconds of the whole replay, set-up included.
    pub wall_s: f64,
}

/// Replays the day of `cfg` with every layer call timed.  Covers the
/// fault-free days the benchmark runs: faults would need the sweep's fault
/// installer, which is not public.
pub fn traced_day(cfg: &DaySweepConfig) -> TracedDay {
    assert!(
        cfg.faults.is_empty(),
        "the traced replay covers fault-free days"
    );
    let start = Instant::now();
    let mut spans = Spans::default();

    let t = Instant::now();
    let trace = day_trace(&cfg.profile, &cfg.mix, cfg.seed);
    spans.record(Layer::DayTrace, t);

    let t = Instant::now();
    let mut tb = testbed_from_specs_with_queue(TABLE1, cfg.seed, NoiseModel::default(), cfg.queue);
    spans.record(Layer::TestbedBuild, t);

    let t = Instant::now();
    install(&mut tb, cfg);
    spans.record(Layer::Install, t);

    let t = Instant::now();
    let search =
        (cfg.strategy == StrategyKind::Searched).then(|| search_context(cfg, tb.topology.clone()));
    spans.add_busy(Layer::Search, t);

    let mut day = Day::new(cfg, tb, search, trace.len() / 2, spans);
    for job in &trace {
        day.submit(job);
    }
    let (outcome, spans, counts) = day.finish(SimTime::ZERO + cfg.profile.horizon());
    TracedDay {
        outcome,
        trace_len: trace.len(),
        spans,
        counts,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Overlay switches, periodic behaviours and churn, as the sweep installs
/// them before the first job.
fn install(tb: &mut Grid5000Testbed, cfg: &DaySweepConfig) {
    tb.overlay.tracer().set_enabled(false);
    tb.overlay
        .set_rs_timeout_fast_path(cfg.rs_timeout_fast_path);
    tb.overlay.set_fail_jobs_on_crash(cfg.fail_jobs_on_crash);
    tb.overlay.start_heartbeats();
    tb.overlay
        .start_reservation_expiry(SimDuration::from_secs(60), SimDuration::from_secs(120));
    let submitter = tb.submitter;
    tb.overlay.start_cache_refresh(submitter, cfg.cache_refresh);
    if let Some(churn) = &cfg.churn {
        let peers: Vec<_> = tb
            .overlay
            .peer_ids()
            .into_iter()
            .filter(|&p| p != submitter)
            .collect();
        let mut rng = seeded(derive_seed(cfg.seed, 0xF1A9));
        let schedule = flapping_churn(
            &peers,
            churn.fraction,
            cfg.profile.horizon(),
            churn.downtime,
            churn.uptime,
            &mut rng,
        );
        tb.overlay.schedule_churn(schedule.finish());
    }
}

/// The state of a day in progress.
struct Day<'a> {
    cfg: &'a DaySweepConfig,
    tb: Grid5000Testbed,
    allocator: CoAllocator,
    settings: Fig4Settings,
    search: Option<SearchContext>,
    search_caps: Vec<u32>,
    next_sample: SimTime,
    next_probe: Option<SimTime>,
    samples: Vec<(u64, Vec<u32>)>,
    core_seconds: Vec<f64>,
    site_core_bins: Vec<Vec<f64>>,
    charge_scratch: Vec<f64>,
    hold_secs_total: f64,
    submitted: usize,
    succeeded: usize,
    failed: usize,
    timeouts: u64,
    mid_job: usize,
    mid_caps: (usize, usize),
    dead_ticket_hwm: usize,
    spans: Spans,
    counts: Counts,
}

impl<'a> Day<'a> {
    fn new(
        cfg: &'a DaySweepConfig,
        tb: Grid5000Testbed,
        search: Option<SearchContext>,
        mid_job: usize,
        spans: Spans,
    ) -> Self {
        let sites = tb.topology.site_count();
        Day {
            cfg,
            tb,
            allocator: CoAllocator::new(),
            settings: sweep_settings(cfg.seed),
            search,
            search_caps: Vec::new(),
            next_sample: SimTime::ZERO,
            next_probe: (cfg.churn.is_some() || !cfg.faults.is_empty())
                .then_some(SimTime::ZERO + cfg.cache_refresh),
            samples: Vec::new(),
            core_seconds: vec![0.0; sites],
            site_core_bins: vec![Vec::new(); sites],
            charge_scratch: vec![0.0; sites],
            hold_secs_total: 0.0,
            submitted: 0,
            succeeded: 0,
            failed: 0,
            timeouts: 0,
            mid_job,
            mid_caps: (0, 0),
            dead_ticket_hwm: 0,
            spans,
            counts: Counts::default(),
        }
    }

    /// Takes every utilisation sample due at or before `upto`.
    fn sample_due(&mut self, upto: SimTime) {
        let t = Instant::now();
        while self.next_sample <= upto {
            self.tb.overlay.run_until(self.next_sample);
            let mut running = vec![0u32; self.tb.topology.site_count()];
            for peer in self.tb.overlay.peer_ids() {
                let site = self.tb.topology.host(self.tb.overlay.host_of(peer)).site;
                running[site.0] += self.tb.overlay.node(peer).rs.running_processes();
            }
            self.samples.push((self.next_sample.as_nanos(), running));
            self.next_sample += self.cfg.sample_period;
        }
        self.spans.record(Layer::Sample, t);
    }

    fn run_until(&mut self, at: SimTime) {
        let t = Instant::now();
        let events = self.tb.overlay.run_until(at);
        self.spans.record(Layer::RunUntil, t);
        self.counts.run_until_calls += 1;
        self.counts.run_until_events += events;
    }

    fn advance_to(&mut self, at: SimTime) {
        self.sample_due(at);
        self.run_until(at);

        let t = Instant::now();
        if let Some(due) = &mut self.next_probe {
            if self.tb.overlay.now() >= *due {
                self.tb.overlay.probe_round(self.tb.submitter);
                self.counts.probe_rounds += 1;
                while *due <= self.tb.overlay.now() {
                    *due += self.cfg.cache_refresh;
                }
            }
        }
        self.spans.record(Layer::ProbeRound, t);

        let t = Instant::now();
        let dead = self
            .tb
            .overlay
            .events_queued()
            .saturating_sub(self.tb.overlay.events_pending());
        self.dead_ticket_hwm = self.dead_ticket_hwm.max(dead);
        if dead > self.cfg.reap_threshold {
            self.counts.reaps += 1;
            self.counts.reaped_tickets += self.tb.overlay.reap_events() as u64;
        }
        self.spans.record(Layer::ReapEvents, t);
    }

    /// The job's request, carrying the searched plan on a searched day.
    fn request_for(&mut self, job: &JobSpec) -> JobRequest {
        let request = JobRequest::new(job.ranks, self.cfg.strategy, job.kernel.program());
        let Some(ctx) = self.search.as_mut() else {
            return request;
        };
        // A host is free when its peer is alive and runs no application.
        self.search_caps.clear();
        self.search_caps.resize(self.tb.topology.host_count(), 0);
        for (h, cap) in self.search_caps.iter_mut().enumerate() {
            if let Some(peer) = self.tb.overlay.peer_on_host(HostId(h)) {
                let node = self.tb.overlay.node(peer);
                if node.is_alive() && node.rs.active_applications() == 0 {
                    *cap = self.tb.topology.host(HostId(h)).cores as u32;
                }
            }
        }
        self.counts.search_calls += 1;
        let arrival = (self.submitted - 1) as u64;
        let Some(hosts) = ctx.searched_hosts(job.kernel, job.ranks, &self.search_caps, arrival)
        else {
            return request;
        };
        let mut plan: Vec<PlannedHost> = Vec::new();
        for (rank, &host) in hosts.iter().enumerate() {
            let peer = self
                .tb
                .overlay
                .peer_on_host(host)
                .expect("searched placements only use hosts with live peers");
            match plan.iter_mut().find(|ph| ph.peer == peer) {
                Some(ph) => ph.ranks.push(rank as u32),
                None => plan.push(PlannedHost {
                    peer,
                    ranks: vec![rank as u32],
                }),
            }
        }
        request.with_plan(Arc::from(plan))
    }

    fn submit(&mut self, job: &JobSpec) {
        if self.submitted == self.mid_job {
            self.mid_caps = (
                self.tb.overlay.events_capacity(),
                self.tb.overlay.rs_scratch_capacity(),
            );
        }
        self.submitted += 1;
        self.advance_to(job.at);

        let t = Instant::now();
        let request = self.request_for(job);
        self.spans.record(Layer::Search, t);

        let events_before = self.tb.overlay.events_processed();
        let t = Instant::now();
        let report = self
            .allocator
            .allocate(&mut self.tb.overlay, self.tb.submitter, &request);
        self.spans.record(Layer::Allocate, t);
        let c = &mut self.counts;
        c.allocate_calls += 1;
        c.allocate_events += self.tb.overlay.events_processed() - events_before;
        c.booked += report.booked as u64;
        c.granted += report.granted as u64;
        c.refused += report.refused as u64;
        c.dead += report.dead as u64;
        self.timeouts += report.dead as u64;

        match &report.outcome {
            Ok(alloc) => {
                let t = Instant::now();
                let placement = Placement::from_allocation(alloc);
                let point = run_kernel_on_placement(
                    job.kernel,
                    self.cfg.strategy,
                    &placement,
                    &self.tb.topology,
                    &self.settings,
                );
                self.spans.record(Layer::KernelCost, t);
                self.counts.kernel_calls += 1;
                self.counts.kernel_ranks += u64::from(job.ranks);

                let t = Instant::now();
                self.charge(
                    alloc,
                    report.key,
                    point.makespan.mul_f64(self.cfg.duration_scale),
                );
                self.spans.record(Layer::Charge, t);
            }
            Err(_) => self.failed += 1,
        }
    }

    /// Charges `hold` on every booked host of `alloc`, spread over the
    /// ledger bins it overlaps, and schedules the job's completion.
    fn charge(&mut self, alloc: &Allocation, key: ReservationKey, hold: SimDuration) {
        self.succeeded += 1;
        self.hold_secs_total += hold.as_secs_f64();
        self.charge_scratch.fill(0.0);
        for h in &alloc.hosts {
            let site = self.tb.topology.host(h.host).site;
            self.charge_scratch[site.0] += h.instances() as f64;
        }
        let start = self.tb.overlay.now().as_secs_f64();
        let end = start + hold.as_secs_f64();
        let w = self.cfg.sample_period.as_secs_f64();
        let first = (start / w).floor() as usize;
        let last = ((end / w).ceil() as usize).max(first + 1);
        if self.site_core_bins[0].len() < last {
            for series in &mut self.site_core_bins {
                series.resize(last, 0.0);
            }
        }
        for (site, &c) in self.charge_scratch.iter().enumerate() {
            if c == 0.0 {
                continue;
            }
            self.core_seconds[site] += c * hold.as_secs_f64();
            for b in first..last {
                let bin_start = b as f64 * w;
                let overlap = (end.min(bin_start + w) - start.max(bin_start)).max(0.0);
                if overlap > 0.0 {
                    self.site_core_bins[site][b] += c * overlap;
                }
            }
        }
        let done_at = self.tb.overlay.now() + hold;
        let peers = alloc.hosts.iter().map(|h| h.peer).collect();
        self.tb.overlay.schedule_completion(done_at, key, peers);
    }

    fn finish(mut self, horizon: SimTime) -> (Outcome, Spans, Counts) {
        self.sample_due(horizon);
        self.run_until(horizon);
        let overlay = &self.tb.overlay;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let outcome = Outcome {
            submitted: self.submitted,
            succeeded: self.succeeded,
            failed: self.failed,
            timeouts: self.timeouts,
            mean_hold_bits: (self.hold_secs_total / self.succeeded.max(1) as f64).to_bits(),
            events_processed: overlay.events_processed(),
            virtual_end: overlay.now(),
            core_seconds_bits: bits(&self.core_seconds),
            site_core_bins_bits: self.site_core_bins.iter().map(|s| bits(s)).collect(),
            samples: self.samples,
            events_capacity: (self.mid_caps.0, overlay.events_capacity()),
            rs_scratch_capacity: (self.mid_caps.1, overlay.rs_scratch_capacity()),
            jobs_killed: overlay.jobs_killed(),
            leaked_grants: overlay.leaked_grants(),
            leaked_grant_hwm: overlay.leaked_grant_hwm(),
            reaped_tickets: self.counts.reaped_tickets,
            dead_ticket_hwm: self.dead_ticket_hwm,
            search: self.search.as_ref().map(|ctx| {
                let s = ctx.stats();
                [
                    s.arrivals,
                    s.searched,
                    s.infeasible,
                    s.warm_rebases,
                    s.cold_builds,
                    s.moves_evaluated,
                ]
            }),
        };
        (outcome, self.spans, self.counts)
    }
}
