//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <paper_day|dead_peer_day|searched_day> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it replays a fixed set of days (the `--seed` day and
//! days under seeds derived from it) through `run_day_sweep`, round after
//! round for `--seconds`, timing set-ups before every day, and prints the
//! end-to-end metrics.  With `--trace 1` it alternates an untraced sweep of
//! the `--seed` day with the traced replay of `replay.rs` and prints the
//! per-layer metrics.  Every day passes the conservation checks of
//! `outcome.rs`, every repeat of a day must be bit-identical, and every
//! traced day must reproduce the untraced one.  The last line of standard
//! output is the result object; the line before it carries the machine
//! fingerprint and the raw samples.

mod outcome;
mod replay;

use outcome::Outcome;
use p2pmpi_bench::workload::{day_trace, run_day_sweep, DaySweepConfig, DaySweepResult};
use p2pmpi_core::prelude::StrategyKind;
use p2pmpi_grid5000::testbed::testbed_from_specs_with_queue;
use p2pmpi_grid5000::TABLE1;
use p2pmpi_simgrid::noise::NoiseModel;
use p2pmpi_simgrid::rngutil::derive_seed;
use replay::{search_context, traced_day, Layer, TracedDay};
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <paper_day|dead_peer_day|searched_day> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Days an untraced run replays, each under its own seed.
const DAYS_PER_RUN: u64 = 4;

/// The seeds of the days a run with `--seed seed` replays: the seed's own
/// day first, then days under seeds derived from it.  One day's outcomes
/// vary from seed to seed by several percent; a set of days steadies them.
fn day_seeds(seed: u64) -> Vec<u64> {
    std::iter::once(seed)
        .chain((1..DAYS_PER_RUN).map(|i| derive_seed(seed, i)))
        .collect()
}

/// Set-ups timed before each day of an untraced run, so that they sample
/// the whole run; `setup_s` is the median of all of them.
const SETUPS_PER_DAY: usize = 11;

#[derive(Clone, Copy, Debug)]
enum Workload {
    Paper,
    DeadPeer,
    Searched,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper_day" => Some(Workload::Paper),
            "dead_peer_day" => Some(Workload::DeadPeer),
            "searched_day" => Some(Workload::Searched),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper_day",
            Workload::DeadPeer => "dead_peer_day",
            Workload::Searched => "searched_day",
        }
    }

    /// The sweep configuration of this workload under master seed `seed`.
    fn config(self, seed: u64) -> DaySweepConfig {
        let cfg = match self {
            Workload::Paper => DaySweepConfig::new(StrategyKind::Concentrate),
            Workload::DeadPeer => {
                DaySweepConfig::dead_peer_day(StrategyKind::Concentrate).compress(12.0)
            }
            Workload::Searched => {
                let mut cfg = DaySweepConfig::new(StrategyKind::Searched).compress(24.0);
                cfg.profile = cfg.profile.scaled(0.05);
                cfg
            }
        };
        DaySweepConfig { seed, ..cfg }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 2008;
        let mut seconds: f64 = 10.0;
        let mut trace = false;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value '{value}' for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload '{value}'"))?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|_| bad(()))?,
                "--seconds" => seconds = value.parse().map_err(|_| bad(()))?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(())),
                    }
                }
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".to_string());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// Named metrics with units, printed as one JSON object.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push('}');
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_numbers(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// The machine the numbers were taken on: hardware threads, CPU model and
/// the compiler that built the benchmark.
fn fingerprint() -> String {
    let hw_threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"hw_threads\": {hw_threads}, \"cpu_model\": {}, \"rustc\": {}}}",
        json_string(&cpu_model),
        json_string(env!("PERFBENCH_RUSTC_VERSION"))
    )
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` of `ns`, in microseconds (0 when empty).
fn percentile_us(ns: &mut [u64], q: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.sort_unstable();
    let rank = ((q * ns.len() as f64).ceil() as usize).clamp(1, ns.len());
    ns[rank - 1] as f64 / 1e3
}

/// Correctness bookkeeping of one run: every checked day adds its jobs to
/// `attempted`, and a day with any broken check adds them to `failed`.
#[derive(Default)]
struct Verdict {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    /// The first untraced run of each day of the set; every later run of
    /// that day must match it bit for bit.
    references: Vec<Outcome>,
}

impl Verdict {
    /// Checks a run of day `index` (days are first seen in index order)
    /// of `cfg`; `label` names it in problem reports.
    fn day(
        &mut self,
        index: usize,
        label: &str,
        outcome: Outcome,
        cfg: &DaySweepConfig,
        trace_len: usize,
    ) {
        let mut problems = outcome.check(cfg, trace_len);
        match self.references.get(index) {
            None => self.references.push(outcome.clone()),
            Some(first) => {
                let diff = first.differences(&outcome);
                if !diff.is_empty() {
                    problems.push(format!(
                        "differs from the first untraced run of the day in {}",
                        diff.join(", ")
                    ));
                }
            }
        }
        self.attempted += outcome.submitted;
        if !problems.is_empty() {
            self.failed += outcome.submitted;
            for p in problems {
                eprintln!("perfbench: CHECK FAILED ({label}): {p}");
                self.problems.push(format!("{label}: {p}"));
            }
        }
    }

    /// Prints the result line and turns the verdict into the exit code.
    fn finish(self, metrics: &Metrics) -> ExitCode {
        let correct = self.problems.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.attempted,
            self.failed,
            metrics.to_json()
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Runs `round` once, then again while the next round is expected to end
/// no more than half a round past `seconds` from the start.
fn repeat_for(seconds: f64, mut round: impl FnMut()) {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        round();
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last / 2.0 >= seconds {
            break;
        }
    }
}

/// One untraced `run_day_sweep`, with its host wall time.
fn timed_sweep(cfg: &DaySweepConfig) -> (DaySweepResult, f64) {
    let t = Instant::now();
    let result = black_box(run_day_sweep(black_box(cfg)));
    (result, t.elapsed().as_secs_f64())
}

/// Host seconds of each public set-up call: the trace, the testbed and, on
/// a searched day, the search context.
fn setup_once(cfg: &DaySweepConfig) -> ([f64; 3], usize) {
    let t = Instant::now();
    let trace = black_box(day_trace(&cfg.profile, &cfg.mix, cfg.seed));
    let trace_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let tb = black_box(testbed_from_specs_with_queue(
        TABLE1,
        cfg.seed,
        NoiseModel::default(),
        cfg.queue,
    ));
    let testbed_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let ctx = black_box(
        (cfg.strategy == StrategyKind::Searched).then(|| search_context(cfg, tb.topology.clone())),
    );
    let search_s = t.elapsed().as_secs_f64();
    drop(ctx);
    ([trace_s, testbed_s, search_s], trace.len())
}

fn run_untraced(args: &Args) -> ExitCode {
    let days: Vec<DaySweepConfig> = day_seeds(args.seed)
        .iter()
        .map(|&seed| args.workload.config(seed))
        .collect();
    let mut setups = Vec::new();
    let mut verdict = Verdict::default();
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    let mut peak_rss = None;
    repeat_for(args.seconds, || {
        let round = rates.len();
        let (mut jobs, mut round_wall) = (0, 0.0);
        for (i, cfg) in days.iter().enumerate() {
            let mut trace_len = 0;
            for _ in 0..SETUPS_PER_DAY {
                let (parts, len) = setup_once(cfg);
                setups.push(parts);
                trace_len = len;
            }
            let (result, wall) = timed_sweep(cfg);
            // The peak of set-up plus one day: later repeats would only add
            // allocator fragmentation that depends on how many fit the budget.
            peak_rss.get_or_insert_with(peak_rss_mb);
            let label = format!("round {round} day {i}");
            verdict.day(i, &label, Outcome::of(&result), cfg, trace_len);
            jobs += result.submitted;
            round_wall += wall;
            walls.push(wall);
        }
        rates.push(jobs as f64 / round_wall);
    });

    let setup_totals: Vec<f64> = setups.iter().map(|p| p.iter().sum()).collect();
    let days_run = &verdict.references;
    let submitted: usize = days_run.iter().map(|o| o.submitted).sum();
    let succeeded: usize = days_run.iter().map(|o| o.succeeded).sum();
    let held: f64 = days_run
        .iter()
        .map(|o| o.mean_hold_secs() * o.succeeded as f64)
        .sum();
    let mut metrics = Metrics::default();
    metrics.push("setup_s", median(&setup_totals), "s");
    metrics.push("jobs_per_s", median(&rates), "jobs/s");
    metrics.push(
        "success_rate",
        succeeded as f64 / submitted.max(1) as f64,
        "ratio",
    );
    metrics.push("mean_hold_s", held / succeeded.max(1) as f64, "s");
    match peak_rss.expect("at least one sweep ran") {
        Ok(mb) => metrics.push("peak_rss_mb", mb, "MB"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }

    let part = |i: usize| median(&setups.iter().map(|p| p[i]).collect::<Vec<_>>());
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": 0, \"fingerprint\": {}, \
         \"day_seeds\": {:?}, \"day_jobs\": {:?}, \"sweep_wall_s\": {}, \"round_jobs_per_s\": {}, \
         \"setup_median_s\": {{\"day_trace\": {}, \"testbed\": {}, \"search_context\": {}}}}}",
        args.workload.name(),
        args.seed,
        fingerprint(),
        days.iter().map(|d| d.seed).collect::<Vec<_>>(),
        days_run.iter().map(|o| o.submitted).collect::<Vec<_>>(),
        json_numbers(&walls),
        json_numbers(&rates),
        part(0),
        part(1),
        part(2),
    );
    verdict.finish(&metrics)
}

fn run_traced(args: &Args) -> ExitCode {
    // The traced run replays day 0 of the set: the `--seed` day itself.
    let cfg = &args.workload.config(args.seed);
    let mut verdict = Verdict::default();
    let mut untraced_walls = Vec::new();
    let mut days: Vec<TracedDay> = Vec::new();
    let mut first_result: Option<DaySweepResult> = None;
    repeat_for(args.seconds, || {
        let (result, wall) = timed_sweep(cfg);
        let day = traced_day(cfg);
        let round = days.len();
        let untraced = format!("round {round} untraced");
        verdict.day(0, &untraced, Outcome::of(&result), cfg, day.trace_len);
        let traced = format!("round {round} traced");
        verdict.day(0, &traced, day.outcome.clone(), cfg, day.trace_len);
        untraced_walls.push(wall);
        first_result.get_or_insert(result);
        days.push(day);
    });

    let result = first_result.expect("at least one round ran");
    let counts = &days[0].counts;
    let mut m = Metrics::default();
    let busy = |layer: Layer| {
        median(
            &days
                .iter()
                .map(|d| d.spans.busy_s(layer))
                .collect::<Vec<_>>(),
        )
    };
    let pooled = |layer: Layer| -> Vec<u64> {
        days.iter()
            .flat_map(|d| d.spans.durations_ns(layer).iter().copied())
            .collect()
    };
    let timed = |m: &mut Metrics, layer: Layer, calls: u64| {
        let name = layer.name();
        let mut ns = pooled(layer);
        m.push(format!("{name}.calls"), calls as f64, "count");
        m.push(format!("{name}.busy_s"), busy(layer), "s");
        m.push(format!("{name}.p50_us"), percentile_us(&mut ns, 0.50), "us");
        m.push(format!("{name}.p99_us"), percentile_us(&mut ns, 0.99), "us");
    };

    m.push(
        "grid5000.testbed_build.busy_s",
        busy(Layer::TestbedBuild),
        "s",
    );
    m.push("bench.day_trace.busy_s", busy(Layer::DayTrace), "s");
    m.push("overlay.install.busy_s", busy(Layer::Install), "s");

    timed(&mut m, Layer::KernelCost, counts.kernel_calls);
    m.push("mpi.kernel_cost.ranks", counts.kernel_ranks as f64, "count");

    timed(&mut m, Layer::Allocate, counts.allocate_calls);
    m.push(
        "core.allocate.events",
        counts.allocate_events as f64,
        "count",
    );
    m.push("core.allocate.booked", counts.booked as f64, "count");
    m.push("core.allocate.granted", counts.granted as f64, "count");
    m.push("core.allocate.refused", counts.refused as f64, "count");
    m.push("core.allocate.dead", counts.dead as f64, "count");
    m.push(
        "core.allocate.grant_ratio",
        counts.granted as f64 / counts.booked.max(1) as f64,
        "ratio",
    );

    m.push(
        "overlay.run_until.calls",
        counts.run_until_calls as f64,
        "count",
    );
    m.push("overlay.run_until.busy_s", busy(Layer::RunUntil), "s");
    m.push(
        "overlay.run_until.events",
        counts.run_until_events as f64,
        "count",
    );
    m.push(
        "overlay.probe_round.calls",
        counts.probe_rounds as f64,
        "count",
    );
    m.push("overlay.probe_round.busy_s", busy(Layer::ProbeRound), "s");
    m.push("overlay.reap_events.calls", counts.reaps as f64, "count");
    m.push("overlay.reap_events.busy_s", busy(Layer::ReapEvents), "s");
    m.push(
        "overlay.reap_events.tickets",
        counts.reaped_tickets as f64,
        "count",
    );
    m.push("overlay.sample.busy_s", busy(Layer::Sample), "s");
    m.push(
        "overlay.leaked_grants",
        result.leaked_grants as f64,
        "count",
    );

    timed(&mut m, Layer::Search, counts.search_calls);
    let search = result.search.unwrap_or_default();
    m.push("bench.search.moves", search.moves_evaluated as f64, "count");
    m.push(
        "bench.search.warm_rebases",
        search.warm_rebases as f64,
        "count",
    );
    m.push(
        "bench.search.cold_builds",
        search.cold_builds as f64,
        "count",
    );
    m.push("bench.charge.busy_s", busy(Layer::Charge), "s");

    m.push("simgrid.events", result.events_processed as f64, "count");
    m.push(
        "simgrid.events_per_job",
        result.events_processed as f64 / result.submitted.max(1) as f64,
        "events/job",
    );
    m.push(
        "simgrid.dead_ticket_hwm",
        result.dead_ticket_hwm as f64,
        "count",
    );
    let growth = |mid: usize, end: usize| end as f64 - mid as f64;
    m.push(
        "simgrid.capacity_growth",
        growth(result.events_capacity_mid, result.events_capacity_end)
            + growth(
                result.rs_scratch_capacity_mid,
                result.rs_scratch_capacity_end,
            ),
        "slots",
    );

    let shares: Vec<f64> = days
        .iter()
        .map(|d| d.spans.total_busy_s() / d.wall_s)
        .collect();
    let traced_walls: Vec<f64> = days.iter().map(|d| d.wall_s).collect();
    m.push("trace.layer_share", median(&shares), "ratio");
    m.push(
        "trace.overhead",
        median(&traced_walls) / median(&untraced_walls),
        "ratio",
    );

    if counts.kernel_calls != result.succeeded as u64 {
        verdict.problems.push(format!(
            "costed {} placements for {} successful jobs",
            counts.kernel_calls, result.succeeded
        ));
    }

    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": 1, \"fingerprint\": {}, \
         \"jobs\": {}, \"traced_wall_s\": {}, \"untraced_wall_s\": {}, \"layer_share\": {}}}",
        args.workload.name(),
        args.seed,
        fingerprint(),
        result.submitted,
        json_numbers(&traced_walls),
        json_numbers(&untraced_walls),
        json_numbers(&shares),
    );
    verdict.finish(&m)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    }
}
