//! What a day sweep produced, in a form that compares bit for bit, and the
//! correctness checks every measured run passes through.

use p2pmpi_bench::workload::{DaySweepConfig, DaySweepResult};
use p2pmpi_simgrid::time::SimTime;

/// The simulated outcome of one day: every field of [`DaySweepResult`]
/// except the search's wall-clock counters, floats kept as their bits so
/// equality means bit-identical.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub submitted: usize,
    pub succeeded: usize,
    pub failed: usize,
    pub timeouts: u64,
    pub mean_hold_bits: u64,
    pub events_processed: u64,
    pub virtual_end: SimTime,
    pub core_seconds_bits: Vec<u64>,
    pub site_core_bins_bits: Vec<Vec<u64>>,
    /// `(instant in ns, running processes per site)` per utilisation sample.
    pub samples: Vec<(u64, Vec<u32>)>,
    pub events_capacity: (usize, usize),
    pub rs_scratch_capacity: (usize, usize),
    pub jobs_killed: u64,
    pub leaked_grants: u64,
    pub leaked_grant_hwm: u64,
    pub reaped_tickets: u64,
    pub dead_ticket_hwm: usize,
    /// Search counters: arrivals, searched, infeasible, warm rebases, cold
    /// builds, moves evaluated (`None` unless the day searched).
    pub search: Option<[u64; 6]>,
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

impl Outcome {
    pub fn of(r: &DaySweepResult) -> Outcome {
        Outcome {
            submitted: r.submitted,
            succeeded: r.succeeded,
            failed: r.failed,
            timeouts: r.timeouts,
            mean_hold_bits: r.mean_hold_secs.to_bits(),
            events_processed: r.events_processed,
            virtual_end: r.virtual_end,
            core_seconds_bits: bits(&r.core_seconds),
            site_core_bins_bits: r.site_core_bins.iter().map(|s| bits(s)).collect(),
            samples: r
                .samples
                .iter()
                .map(|s| (s.t.as_nanos(), s.running.clone()))
                .collect(),
            events_capacity: (r.events_capacity_mid, r.events_capacity_end),
            rs_scratch_capacity: (r.rs_scratch_capacity_mid, r.rs_scratch_capacity_end),
            jobs_killed: r.jobs_killed,
            leaked_grants: r.leaked_grants,
            leaked_grant_hwm: r.leaked_grant_hwm,
            reaped_tickets: r.reaped_tickets,
            dead_ticket_hwm: r.dead_ticket_hwm,
            search: r.search.map(|s| {
                [
                    s.arrivals,
                    s.searched,
                    s.infeasible,
                    s.warm_rebases,
                    s.cold_builds,
                    s.moves_evaluated,
                ]
            }),
        }
    }

    pub fn mean_hold_secs(&self) -> f64 {
        f64::from_bits(self.mean_hold_bits)
    }

    /// Names of the fields in which `self` and `other` differ.
    pub fn differences(&self, other: &Outcome) -> Vec<&'static str> {
        let mut fields = Vec::new();
        macro_rules! compare {
            ($($field:ident),*) => {
                $(if self.$field != other.$field {
                    fields.push(stringify!($field));
                })*
            };
        }
        compare!(
            submitted,
            succeeded,
            failed,
            timeouts,
            mean_hold_bits,
            events_processed,
            virtual_end,
            core_seconds_bits,
            site_core_bins_bits,
            samples,
            events_capacity,
            rs_scratch_capacity,
            jobs_killed,
            leaked_grants,
            leaked_grant_hwm,
            reaped_tickets,
            dead_ticket_hwm,
            search
        );
        fields
    }

    /// The simulator's conservation laws for one day of `cfg` whose trace
    /// held `trace_len` jobs; returns one line per broken law.
    pub fn check(&self, cfg: &DaySweepConfig, trace_len: usize) -> Vec<String> {
        let mut problems = Vec::new();
        if self.submitted != trace_len {
            problems.push(format!(
                "submitted {} jobs of a {trace_len}-job trace",
                self.submitted
            ));
        }
        if self.succeeded + self.failed != self.submitted {
            problems.push(format!(
                "outcomes do not partition the jobs: {} succeeded + {} failed != {} submitted",
                self.succeeded, self.failed, self.submitted
            ));
        }
        for (site, (total, bins)) in self
            .core_seconds_bits
            .iter()
            .zip(&self.site_core_bins_bits)
            .enumerate()
        {
            let total = f64::from_bits(*total);
            let binned: f64 = bins.iter().map(|b| f64::from_bits(*b)).sum();
            let error = (binned - total).abs() / total.abs().max(f64::MIN_POSITIVE);
            if error.is_nan() || error > 1e-9 {
                problems.push(format!(
                    "site {site}: binned core-seconds {binned} vs ledger {total} (relative error {error:e})"
                ));
            }
        }
        let horizon = SimTime::ZERO + cfg.profile.horizon();
        if self.virtual_end < horizon {
            problems.push(format!(
                "the day ended at {:?}, before its horizon {horizon:?}",
                self.virtual_end
            ));
        }
        if !self.mean_hold_secs().is_finite() {
            problems.push("the mean hold is not finite".to_string());
        }
        problems
    }
}
