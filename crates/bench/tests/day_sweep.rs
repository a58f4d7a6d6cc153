//! Integration test of the day-scale sweep harness at reduced scale: the
//! compressed paper-day trace must run fast on the event timeline (with
//! every reservation's timeout as a scheduled event), reproduce the
//! Figures 2–3 concentrate/spread contrast, and produce bit-identical
//! outcomes whichever queue structure backs the timeline.

use p2pmpi_bench::workload::{run_day_sweep, DaySweepConfig, DaySweepResult, FaultSpec};
use p2pmpi_core::strategy::StrategyKind;
use p2pmpi_simgrid::event::QueueKind;
use p2pmpi_simgrid::time::SimDuration;
use std::time::Instant;

/// The CI-smoke shape: the whole day's burst profile compressed into one
/// virtual hour at ~1.1k jobs.
fn reduced(strategy: StrategyKind) -> DaySweepConfig {
    let mut cfg = DaySweepConfig::new(strategy).compress(24.0);
    cfg.profile = cfg.profile.scaled(0.05);
    cfg.sample_period = SimDuration::from_secs(60);
    cfg
}

#[test]
fn reduced_day_sweep_shows_the_concentrate_spread_contrast() {
    let start = Instant::now();
    let conc = run_day_sweep(&reduced(StrategyKind::Concentrate));
    let spread = run_day_sweep(&reduced(StrategyKind::Spread));
    let wall = start.elapsed();
    assert!(
        wall.as_secs() < 30,
        "two reduced day sweeps took {wall:?}; the full day must stay in single-digit seconds"
    );

    for (name, r) in [("concentrate", &conc), ("spread", &spread)] {
        assert_eq!(r.site_names[0], "nancy");
        assert!(
            r.submitted > 800,
            "{name}: only {} jobs arrived",
            r.submitted
        );
        assert_eq!(r.submitted, r.succeeded + r.failed, "{name}");
        assert!(
            r.succeeded > r.submitted / 2,
            "{name}: {}/{} jobs succeeded",
            r.succeeded,
            r.submitted
        );
        assert_eq!(
            r.virtual_end,
            p2pmpi_simgrid::time::SimTime::from_secs(3600)
        );
        // Completions, heartbeats and samples all ran on the timeline.
        assert!(r.events_processed > r.succeeded as u64, "{name}");
        // Each success costs its kernel or reuses a memoized shape.
        assert!(r.kernel_costings <= r.succeeded as u64, "{name}");
        // Some sample must have caught work in flight.
        assert!(
            r.samples.iter().any(|s| s.running.iter().sum::<u32>() > 0),
            "{name}: utilisation samples never saw a running process"
        );
    }

    // Concentrate books the same few shapes over and over, so the memo
    // costs fewer than half of its successes.
    assert!(
        2 * conc.kernel_costings < conc.succeeded as u64,
        "concentrate costed {} shapes for {} successes",
        conc.kernel_costings,
        conc.succeeded
    );

    // The Figures 2–3 narrative: the concentrate run keeps (nearly) all the
    // work at Nancy, the spread run pushes a substantial share of it to the
    // other sites.
    let conc_nancy = conc.site_work_share()[0];
    let spread_nancy = spread.site_work_share()[0];
    assert!(conc_nancy > 0.85, "concentrate nancy share {conc_nancy}");
    assert!(spread_nancy < 0.80, "spread nancy share {spread_nancy}");
    assert!(
        conc_nancy > spread_nancy + 0.1,
        "contrast too weak: concentrate {conc_nancy} vs spread {spread_nancy}"
    );
    let spread_remote_sites = spread
        .site_work_share()
        .iter()
        .skip(1)
        .filter(|&&s| s > 0.01)
        .count();
    assert!(
        spread_remote_sites >= 2,
        "spread reached {spread_remote_sites} remote sites"
    );
}

/// Asserts two sweep results are outcome-identical (submissions, outcomes,
/// per-site work, shapes costed, every utilisation sample, observed
/// timeouts).
fn assert_identical(a: &DaySweepResult, b: &DaySweepResult, what: &str) {
    assert_eq!(a.submitted, b.submitted, "{what}");
    assert_eq!(a.succeeded, b.succeeded, "{what}");
    assert_eq!(a.failed, b.failed, "{what}");
    assert_eq!(a.timeouts, b.timeouts, "{what}");
    assert_eq!(a.jobs_killed, b.jobs_killed, "{what}");
    assert_eq!(a.leaked_grants, b.leaked_grants, "{what}");
    assert_eq!(a.leaked_grant_hwm, b.leaked_grant_hwm, "{what}");
    assert_eq!(a.events_processed, b.events_processed, "{what}");
    assert_eq!(a.core_seconds, b.core_seconds, "{what}");
    assert_eq!(a.kernel_costings, b.kernel_costings, "{what}");
    let sa: Vec<_> = a.samples.iter().map(|s| &s.running).collect();
    let sb: Vec<_> = b.samples.iter().map(|s| &s.running).collect();
    assert_eq!(sa, sb, "{what}");
    // The binned core-seconds timelines feed the recovery-time metric, so
    // they are part of the outcome contract too.
    assert_eq!(a.bin_secs, b.bin_secs, "{what}: bin width");
    assert_eq!(
        a.site_core_bins, b.site_core_bins,
        "{what}: core-second bins"
    );
}

#[test]
fn heap_calendar_and_ladder_timelines_agree_on_the_sweep_outcome() {
    // The queue kind is a performance choice, never a semantic one: the
    // same trace must produce bit-identical outcomes on all three
    // structures — including the reservation reply/timeout races the
    // brokering step now runs on the timeline.
    let run = |kind: QueueKind| {
        let mut cfg = reduced(StrategyKind::Concentrate);
        cfg.queue = kind;
        run_day_sweep(&cfg)
    };
    let heap = run(QueueKind::BinaryHeap);
    let cal = run(QueueKind::Calendar);
    let ladder = run(QueueKind::Ladder);
    assert_identical(&heap, &cal, "heap vs calendar");
    assert_identical(&heap, &ladder, "heap vs ladder");
}

#[test]
fn alive_peer_fast_path_is_outcome_invariant() {
    // The warm-brokering fast path (skip arming a timeout whose reply is
    // already scheduled to win the race) is a scheduling-cost optimisation,
    // never a semantic one: with it on or off, the standard day trace and
    // the churn-heavy dead-peer trace must produce bit-identical outcomes —
    // same submissions, same refusals, same observed timeouts, same
    // utilisation samples, same delivered-event count (skipped timeouts
    // were never delivered on the armed path either).
    let run = |fast_path: bool, churny: bool| {
        let mut cfg = if churny {
            let mut cfg = DaySweepConfig::dead_peer_day(StrategyKind::Concentrate).compress(24.0);
            cfg.profile = cfg.profile.scaled(0.05);
            cfg
        } else {
            reduced(StrategyKind::Concentrate)
        };
        cfg.rs_timeout_fast_path = fast_path;
        run_day_sweep(&cfg)
    };
    for churny in [false, true] {
        let armed = run(false, churny);
        let fast = run(true, churny);
        assert_identical(
            &armed,
            &fast,
            if churny {
                "fast path vs armed under churn"
            } else {
                "fast path vs armed on the standard day"
            },
        );
    }
    // And the fast path genuinely observes timeouts under churn: dead
    // peers still arm (the machinery is kept where it is load-bearing).
    let fast_churny = run(true, true);
    assert!(fast_churny.timeouts > 100, "{}", fast_churny.timeouts);
}

#[test]
fn dead_peer_day_parks_timeouts_on_the_timeline_identically_on_every_queue() {
    // The churn-heavy scenario: flapping peers keep getting booked while
    // dead, so reservation timeouts genuinely fire (not just armed and
    // cancelled).  The timeout count must be substantial, the sweep must
    // still place most jobs, and — races included — the three queue kinds
    // must agree bit-for-bit.
    let run = |kind: QueueKind| {
        let mut cfg = DaySweepConfig::dead_peer_day(StrategyKind::Concentrate).compress(24.0);
        cfg.profile = cfg.profile.scaled(0.05);
        cfg.queue = kind;
        run_day_sweep(&cfg)
    };
    let ladder = run(QueueKind::Ladder);
    assert!(
        ladder.submitted > 800,
        "only {} jobs arrived",
        ladder.submitted
    );
    assert!(
        ladder.timeouts > 100,
        "only {} reservation timeouts observed — the churn scenario is not exercising \
         the timeout path",
        ladder.timeouts
    );
    // Compression makes the churn brutal (a flapper cycles every ~37 s of
    // virtual time, and brokering genuinely stalls 2 s per dead booking),
    // so refusals and start failures are part of the scenario — but the
    // grid must still place a meaningful share of the day.
    assert!(
        ladder.succeeded > ladder.submitted / 4,
        "{}/{} jobs succeeded under churn",
        ladder.succeeded,
        ladder.submitted
    );
    // The brokering scratch and event store reach an allocation-free
    // steady state even under timeout churn.
    assert!(
        ladder.steady_state_alloc_free(),
        "brokering re-allocated past the mid-trace high-water mark: events {} -> {}, scratch {} -> {}",
        ladder.events_capacity_mid,
        ladder.events_capacity_end,
        ladder.rs_scratch_capacity_mid,
        ladder.rs_scratch_capacity_end,
    );
    let heap = run(QueueKind::BinaryHeap);
    let cal = run(QueueKind::Calendar);
    assert_identical(&ladder, &heap, "ladder vs heap under churn");
    assert_identical(&ladder, &cal, "ladder vs calendar under churn");
}

#[test]
fn reap_cadence_bounds_dead_tickets_on_a_cancel_heavy_week() {
    // The cancel-heavy week: seven compressed dead-peer days with job-kill
    // on crash and stretched holds, so churn keeps revoking far-future
    // completions (cancel_batch) while armed timeouts keep losing races to
    // millisecond replies — both leave tombstones parked on the timeline.
    // With reaping disabled the dead weight grows past any fixed bound;
    // with the cadence on, it must stay bounded by the threshold plus one
    // inter-job interval — and reaping must not change a single outcome.
    let run = |reap_threshold: usize| {
        let mut cfg =
            p2pmpi_bench::workload::DaySweepConfig::dead_peer_day(StrategyKind::Concentrate)
                .compress(168.0);
        cfg.profile = p2pmpi_bench::workload::DayProfile::week()
            .scaled(0.02)
            .compressed(168.0);
        cfg.fail_jobs_on_crash = true;
        cfg.duration_scale = 20.0;
        cfg.reap_threshold = reap_threshold;
        run_day_sweep(&cfg)
    };
    let off = run(usize::MAX);
    let on = run(200);
    assert_identical(&off, &on, "reap cadence off vs on");
    // The scenario genuinely cancels: jobs died to crashes, timeouts fired,
    // and without reaping the standing dead population grows to tens of
    // thousands of tickets (observed ~24k at threshold ∞).
    assert!(off.jobs_killed > 0, "churn never killed a running job");
    assert_eq!(off.reaped_tickets, 0, "disabled cadence must never reap");
    assert!(
        off.dead_ticket_hwm > 10_000,
        "unreaped dead weight only reached {} tickets — the trace is not cancel-heavy",
        off.dead_ticket_hwm
    );
    // With the cadence on, dead weight stays bounded by the threshold plus
    // one inter-job interval's cancellations (observed ~360 at 200).
    assert!(on.reaped_tickets > 0, "cadence never fired");
    assert!(
        on.dead_ticket_hwm <= 1_000,
        "reaped run still accumulated {} dead tickets",
        on.dead_ticket_hwm
    );
}

#[test]
fn searched_day_sweep_is_bit_identical_across_queues_and_warm_vs_cold() {
    // The online search rides the sweep deterministically: per-arrival RNG
    // streams derive from the config seed, never from the queue structure
    // or from whether the evaluator pool ran warm.  So (a) the three queue
    // kinds must agree bit-for-bit, exactly like the fixed strategies, and
    // (b) forcing every arrival down the cold rebuild path (`search_cold`)
    // must reproduce the warm run's outcomes — the day-scale face of the
    // `PlacementCost::rebase` exactness contract.
    let run = |kind: QueueKind, cold: bool| {
        let mut cfg = DaySweepConfig::new(StrategyKind::Searched).compress(24.0);
        cfg.profile = cfg.profile.scaled(0.01);
        cfg.sample_period = SimDuration::from_secs(60);
        cfg.search_moves = 80;
        cfg.queue = kind;
        cfg.search_cold = cold;
        run_day_sweep(&cfg)
    };
    let ladder = run(QueueKind::Ladder, false);
    assert!(
        ladder.submitted > 150,
        "only {} jobs arrived",
        ladder.submitted
    );
    assert!(
        ladder.succeeded > ladder.submitted / 2,
        "{}/{} searched jobs succeeded",
        ladder.succeeded,
        ladder.submitted
    );
    // The warm pool genuinely carried the day: one cold build per kernel
    // shape in the mix, everything else a rebase.
    let warm_stats = ladder.search.expect("searched sweeps report search stats");
    assert!(warm_stats.warm_rebases > warm_stats.cold_builds * 10);
    assert!(warm_stats.cold_builds >= 1);

    let heap = run(QueueKind::BinaryHeap, false);
    let cal = run(QueueKind::Calendar, false);
    assert_identical(&ladder, &heap, "searched: ladder vs heap");
    assert_identical(&ladder, &cal, "searched: ladder vs calendar");

    let cold = run(QueueKind::Ladder, true);
    assert_identical(&ladder, &cold, "searched: warm vs cold evaluator pool");
    let cold_stats = cold.search.expect("searched sweeps report search stats");
    assert_eq!(cold_stats.warm_rebases, 0, "cold runs must never rebase");
    assert_eq!(cold_stats.searched, warm_stats.searched);
    assert_eq!(cold_stats.moves_evaluated, warm_stats.moves_evaluated);
}

#[test]
fn injected_faults_agree_bit_for_bit_on_every_queue() {
    // Injected faults ride the same timeline as everything else — churn
    // events, mass revocations (`cancel_batch`), link-degradation toggles,
    // supernode crash/recovery and eager grant releases included — so a
    // scenario stacking every fault kind must still produce bit-identical
    // outcomes whichever queue structure backs the engine.  Times are in
    // the compressed hour's coordinates (the config is already compressed).
    let run = |kind: QueueKind| {
        let mut cfg = reduced(StrategyKind::Spread);
        cfg.mix.ranks = vec![32, 256, 300];
        cfg.fail_jobs_on_crash = true;
        // Stretch holds (~3 s modeled -> ~1 min) so the outage reliably
        // catches jobs mid-run: revocation needs victims.
        cfg.duration_scale = 20.0;
        cfg.faults = vec![
            FaultSpec::SiteOutage {
                site: "rennes".to_string(),
                at: SimDuration::from_secs(1350),
                duration: SimDuration::from_secs(300),
            },
            FaultSpec::SlowLinks {
                site: "sophia".to_string(),
                at: SimDuration::from_secs(150),
                duration: SimDuration::from_secs(3300),
                latency_factor: 200.0,
            },
            FaultSpec::SupernodeOutage {
                at: SimDuration::from_secs(2400),
                duration: SimDuration::from_secs(450),
            },
        ];
        cfg.queue = kind;
        run_day_sweep(&cfg)
    };
    let ladder = run(QueueKind::Ladder);
    // Every fault path genuinely fired: the outage revoked running jobs,
    // and the 200x Sophia latency made reservation replies lose their 2 s
    // races (leaks that the eager release then reclaimed).
    assert!(
        ladder.jobs_killed > 0,
        "site outage revoked no running jobs"
    );
    assert!(
        ladder.leaked_grants > 0,
        "degraded links never exercised the reply-loses-race path"
    );
    assert!(
        ladder.leaked_grant_hwm < ladder.leaked_grants,
        "eager release never drained: high-water mark {} of {} leaks",
        ladder.leaked_grant_hwm,
        ladder.leaked_grants
    );
    let heap = run(QueueKind::BinaryHeap);
    let cal = run(QueueKind::Calendar);
    assert_identical(&ladder, &heap, "ladder vs heap under faults");
    assert_identical(&ladder, &cal, "ladder vs calendar under faults");
}
