//! LogGP-style analytical cost model of the collective operations — and the
//! incremental (delta) placement evaluator built on top of it.
//!
//! The executed runtime ([`crate::runtime::MpiRuntime::run`]) spawns one OS
//! thread per rank and lets the virtual-time cost of a collective *emerge*
//! from thousands of point-to-point messages.  That is faithful but caps
//! Figure 4 sweeps at a few hundred ranks.  This module predicts the same
//! virtual clocks *analytically*: one scalar clock per rank, advanced by
//! walking the exact message schedule of each collective (binomial
//! broadcast/reduce trees, the ring alltoall(v) schedule, linear
//! gather/scatter) under the LogGP cost algebra below — no threads, no
//! channels, no payload bytes.  A 2048-rank NAS-IS iteration that would need
//! 2048 threads and ~4 M channel messages becomes ~4 M scalar clock updates,
//! so sweeps scale to thousands of ranks in seconds.
//!
//! # The LogGP parameterisation
//!
//! LogGP (Alexandrov et al., after the LogP model of Culler et al.) describes
//! a network by:
//!
//! * **L** — the one-way wire latency between two hosts,
//! * **o** — the per-message CPU overhead paid by the software stack,
//! * **g** — the minimum gap between consecutive message injections,
//! * **G** — the gap per byte, i.e. the reciprocal bandwidth for long
//!   messages.
//!
//! The executed runtime's transfer rule (see `p2pmpi_simgrid::network`) is
//!
//! ```text
//! sender:   clock += o                      (software overhead, per message)
//! receiver: clock  = max(clock, sent_at + L + o + bytes·framing·8/bw)
//! ```
//!
//! which is exactly a LogGP cost with `L = rtt/2`, `o` the per-message
//! software overhead on either side, `g = o` (the sender can inject the next
//! message as soon as it has paid the overhead of the previous one) and
//! `G = framing · 8 / bandwidth` seconds per byte.  [`LogGpParams::between`]
//! exposes this mapping for a host pair.
//!
//! ## How Grid'5000 link specs map to L/o/g/G
//!
//! The `p2pmpi-grid5000` crate builds its topology from the paper's Table 1
//! and figure legends (`p2pmpi_grid5000::sites`), and those published specs
//! are precisely what instantiate the four parameters:
//!
//! * **L** comes from `RTT_TO_NANCY_MS` (halved): e.g. Nancy↔Sophia has an
//!   RTT of 17.167 ms, so `L ≈ 8.58 ms`; two hosts of the same site use the
//!   intra-site RTT of 0.087 ms (`L ≈ 43 µs`), and co-located processes the
//!   loopback RTT.
//! * **o** and **g** are the 35 µs per-message software overhead of the
//!   2008-era Java/TCP stack (`NetworkParams::per_message_overhead`), the
//!   same on every link.
//! * **G** comes from `wan_bandwidth_bps` and the NIC rate: 10 Gbps between
//!   most sites but 1 Gbps on any link touching Bordeaux and 1 Gbps at every
//!   NIC, times the 1.05 protocol-framing factor — so
//!   `G = 1.05 · 8 / min(link, NIC) ≈ 8.4 ns/byte` on a 1 Gbps bottleneck.
//!
//! # One schedule, three interpreters
//!
//! The collective schedules themselves — which rank messages which rank, in
//! what order, with how many bytes — depend only on the communicator size,
//! never on the placement.  They are therefore expressed once, as the
//! *default methods* of [`CollectiveProgram`], in terms of four placement-
//! independent primitives (`compute`, `advance`, `message`, `ring_exchange`).
//! Three interpreters consume them:
//!
//! * [`ModelComm`] executes the primitives immediately on per-rank scalar
//!   clocks (the Figure 4 modeled backend);
//! * [`ScheduleBuilder`] records them into a [`CompiledSchedule`], a flat,
//!   placement-independent representation of the whole kernel;
//! * [`PlacementCost`] evaluates a compiled schedule against a *mutable*
//!   host assignment, incrementally.
//!
//! Because all three share the default-method schedules, "the model", "the
//! recorded schedule" and "the delta evaluator" cannot drift apart: the
//! property tests pin `PlacementCost` to a fresh [`ModelComm`] replay
//! (`CompiledSchedule::drive`) per-rank-exactly.
//!
//! # The delta-evaluation contract
//!
//! [`PlacementCost`] exists to make *placement search* cheap: simulated
//! annealing proposes a move (swap two ranks' hosts, or migrate one rank to
//! an idle slot), asks for the new modeled makespan, and keeps or reverts
//! it.  A full model replay costs O(schedule) per proposal; the delta
//! evaluator costs O(affected ranks).
//!
//! **What is cached.**  Per segment of the compiled schedule (a compute
//! phase, a run of tree messages, one ring collective), `PlacementCost`
//! keeps the per-rank clocks at the segment boundary; per tree message, the
//! (`in_src`, `in_dst`, `out_dst`) clock triple of its last evaluation.
//! Transfer costs depend only on the *link class* (same host, or the
//! directed site pair) and the byte count, and are cached accordingly.  The
//! schedule compiler gives every tree message a *byte-class* index (its
//! position among the schedule's distinct tree byte counts), so a tree
//! message is costed through a dense `[byte class][link class]` nanosecond
//! table — link class read from a per-host site array — filled on first use
//! with the very `NetworkModel::transfer_time` value: no hashing on the
//! move path.  A (link class, byte count) memo remains for building ring
//! tables and for `PerPair` rings, whose byte counts have no dense index.
//! Ring segments keep no per-step clocks at all:
//! they share *pooled transfer tables*, one per distinct `Uniform`/`PerSrc`
//! byte structure among the schedule's rings.  A `Uniform` ring (same byte
//! count on every edge) collapses to one loopback scalar plus a
//! *site×site* matrix (`site[src_site · sites + dst_site]`) keyed by static
//! topology data only — O(sites²) bytes and **move-invariant**.  A
//! `PerSrc` ring keeps each source rank's transfer nanoseconds to a
//! co-resident (`tsame[src]`) and to a host at every destination site
//! (`tsite[src · sites + site]`) — O(ranks · sites) bytes, independent of
//! the step count.
//!
//! **What a move invalidates.**  A move changes (a) the transfer cost of
//! every message whose *endpoint rank* moved, and (b) the compute cost of
//! every rank whose host or whose host's *resident count* changed (a swap
//! preserves all resident counts; a migrate changes two hosts').  The delta
//! pass walks the schedule visiting only operations whose inputs changed:
//! a per-rank sorted index of tree messages seeds a worklist with the moved
//! ranks' messages, and dirtiness propagates forward — a rank whose
//! recomputed clock *re-matches* the cached trajectory leaves the dirty set
//! immediately (the `max()` in the receive rule absorbs most perturbations),
//! which is what bounds the affected set in practice.  Within a run of tree
//! messages the worklist is a bitset over the run's message indices,
//! scanned upwards: it visits messages in the order a min-heap would,
//! because after the first pop every queued message is the *next* message
//! of a rank whose clock just changed — an index above the one just popped
//! — so the scan never looks back and no index is queued twice.  A moved
//! rank whose *site* changed additionally rewrites its `tsite` row in every
//! pooled `PerSrc` table (the old rows are journaled into one flat, reused
//! arena); `tsame` is host-independent and `Uniform` tables are site-keyed,
//! so neither ever changes.  A ring segment is then re-run as a two-row
//! integer *wavefront* over the tables — `C[d] = max(C'[d], C'[src] + t) +
//! o` per step, pure u64 nanosecond arithmetic, no float math and no
//! hashing — and only the exit clocks that differ from the segment boundary
//! are journaled and carried forward as the dirty frontier.  What the
//! wavefront reads besides the tables — each rank's site, the co-located
//! (loopback) pairs by ring step, each `Uniform` table's per-rank row
//! expansion — depends on the host assignment alone, so it is built once
//! per assignment and shared by every ring segment of a move (IS runs two
//! per iteration); `apply`, `undo` and `rebuild` (hence `rebase`)
//! invalidate it.
//! Every cache mutation is journaled, so [`PlacementCost::undo`] restores
//! the pre-move state exactly and [`PlacementCost::commit`] is O(1).  All
//! of this runs on scratch reserved at construction (and by `rebase`, for
//! new capacities), so a warm evaluator's `apply`/`undo`/`commit` performs
//! no heap allocation — pinned by `crates/mpi/tests/move_alloc_free.rs`.
//!
//! **Exactness.**  Delta-after-move equals a from-scratch replay bit for
//! bit, per rank — pinned by `crates/mpi/tests/placement_cost_prop.rs` over
//! random schedules, placements and move sequences, with
//! [`PlacementCost::oracle_clocks`] (a fresh `ModelComm` replay) as the
//! oracle.  The wavefront is exact because `SimTime` is a plain u64
//! nanosecond counter and the table entries are the very
//! `NetworkModel::transfer_time` values the replay computes; a ring's cost
//! is a max-plus product of n−1 banded matrices, so a single move perturbs
//! O(n) of its edges and *every* exit clock can depend on them — which is
//! why the wavefront re-derives all n−1 steps instead of chasing a sparse
//! frontier, and why it wins: ~3 ns per receive against the replay's float
//! transfer math and stats accounting.  A capacity-violating migrate is
//! rejected without touching any state.
//!
//! **Memory.**  The caches are O(schedule): trees cost three clocks per
//! message plus the `[byte class][link class]` table; rings cost
//! O(ranks · sites) for the pooled tables and the per-assignment set-up
//! (each `Uniform` table's row expansion, the co-located pair list) plus
//! two O(ranks) scratch rows, shared across *all* ring segments with the
//! same byte structure ([`PlacementCost::ring_cache_bytes`] reports the
//! total).  The undo journal is reserved at its worst case, one entry per
//! boundary clock and per tree message.
//! IS at 1024 ranks holds a few tables of ~64 KB — versus the ≈168 MB of
//! per-(step, rank) clock rows this design replaced — so IS and other
//! alltoall-heavy kernels stay searchable at 1024+ ranks.
//!
//! # The cross-job warm-reuse contract
//!
//! An online placement searcher (the day sweep's `searched` strategy) keeps
//! one warm `PlacementCost` per *kernel shape* — (program, rank count) —
//! across arrivals, because the job mix repeats a handful of shapes and the
//! grid state drifts by only a few occupy/release events between them.
//! [`PlacementCost::rebase`] is the resync point, and its invalidation
//! rules are deliberately narrow:
//!
//! * **Host diffs** are replayed as one wholesale multi-rank move: every
//!   rank whose host differs re-derives exactly what a migrate would
//!   (messages touching it, compute on touched hosts, `PerSrc` ring rows on
//!   site changes), through the same delta pass ordinary moves use.
//! * **Capacity changes invalidate nothing.**  The compute model's
//!   contention term keys on `residents` — ranks of *this* schedule — so
//!   other jobs occupying or releasing slots shifts only where future moves
//!   may go, never any cached clock.  The new capacities take effect
//!   immediately for subsequent `apply` feasibility checks.
//! * **Everything topology-keyed survives forever**: the (link class,
//!   bytes) transfer memo, `Uniform` ring tables, site representatives.
//!
//! `rebase` has commit semantics (the undo journal is cleared; no move can
//! be undone across it) and is exact: a rebased warm evaluator is
//! bit-identical to a fresh [`PlacementCost::new`] over the same arguments,
//! pinned by proptest over random occupy/release interleavings in
//! `tests/placement_cost_prop.rs`.  That exactness is what lets the online
//! search run warm by default and prove itself against a cold rebuild only
//! in tests and `perf_report`.
//!
//! # Fidelity
//!
//! [`ModelComm`] replays the *identical* schedule and clock arithmetic the
//! executed collectives use (same tree shapes, same per-step send order, the
//! same `SimDuration::from_secs_f64` roundings via
//! `NetworkModel::transfer_time`), so for a fixed sequence of collectives
//! over a fixed placement the modeled per-rank clocks are **equal** to the
//! executed ones — the property test in `tests/model_agreement.rs` pins this
//! for every collective at up to 16 ranks over random placements.  Modeled
//! *kernels* (e.g. `p2pmpi-nas`'s `is_model`) may still diverge slightly
//! where message sizes are data-dependent and the model substitutes a
//! balanced approximation; `perf_report` measures and bounds that divergence.
//!
//! # Choosing a backend
//!
//! [`CollectiveBackend`] selects between the two execution styles;
//! [`crate::runtime::MpiRuntime::with_backend`] records the choice on the
//! runtime and [`crate::runtime::MpiRuntime::model_comm`] builds a
//! [`ModelComm`] sharing the runtime's network and compute models, so the
//! experiment layer can flip a whole sweep from executed to modeled without
//! touching the cost parameters.

use crate::error::Rank;
use crate::placement::{Placement, ProcSpec};
use crate::stats::CommStats;
use p2pmpi_simgrid::compute::ComputeModel;
use p2pmpi_simgrid::memory::MemoryIntensity;
use p2pmpi_simgrid::network::NetworkModel;
use p2pmpi_simgrid::time::{SimDuration, SimTime};
use p2pmpi_simgrid::topology::HostId;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// How a job's collectives are costed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectiveBackend {
    /// One OS thread per rank, real message passing over channels; the cost
    /// emerges from the point-to-point layer (today's default path).
    #[default]
    Executed,
    /// Analytical LogGP-style prediction on per-rank scalar clocks; no
    /// threads, scales to thousands of ranks.
    Modeled,
}

/// The LogGP parameters of one (src, dst) host pair, derived from the
/// network model (see the module docs for the mapping).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogGpParams {
    /// `L`: one-way wire latency.
    pub latency: SimDuration,
    /// `o`: per-message software overhead (sender side; the receive path
    /// pays the same once more inside the transfer time).
    pub overhead: SimDuration,
    /// `g`: minimum gap between consecutive message injections (equals `o`
    /// under this runtime's cost rule).
    pub gap: SimDuration,
    /// `G`: seconds per payload byte (framing included).
    pub secs_per_byte: f64,
}

impl LogGpParams {
    /// Derives the parameters for messages from `src` to `dst`.
    pub fn between(network: &NetworkModel, src: HostId, dst: HostId) -> LogGpParams {
        let params = network.params();
        let topology = network.topology();
        let overhead = params.per_message_overhead;
        LogGpParams {
            latency: topology.latency(src, dst),
            overhead,
            gap: overhead,
            secs_per_byte: params.framing_factor * 8.0 / topology.bandwidth_bps(src, dst),
        }
    }
}

/// A program of collective operations, expressed placement-independently.
///
/// The default methods carry the *exact* collective schedules the executed
/// runtime uses (binomial broadcast/reduce trees, linear gather/scatter, the
/// ring alltoall(v)); implementors supply only the four primitives.  The
/// per-rank closures (`ops_of`, `bytes_of`, `bytes`) must be pure functions
/// of their rank arguments: interpreters may evaluate them in any order and
/// any number of times.
pub trait CollectiveProgram {
    /// Number of ranks.
    fn size(&self) -> u32;

    /// Charges a compute section to every rank; `ops_of(rank)` gives the
    /// abstract operation count of each rank's share.
    fn compute<F: FnMut(Rank) -> f64>(&mut self, intensity: MemoryIntensity, ops_of: F);

    /// Advances every rank's clock by `d` (I/O or set-up phases).
    fn advance(&mut self, d: SimDuration);

    /// One point-to-point message: the sender pays `o`, the receiver's clock
    /// rises to the arrival time (mirrors `Comm::send`/`Comm::accept`).
    fn message(&mut self, src: Rank, dst: Rank, bytes: u64);

    /// The full ring exchange of `Comm::alltoallv`: at step `s` every rank
    /// stamps a send to rank `r+s`, then blocks receiving from rank `r-s`;
    /// all sends of a step are stamped against the pre-step clocks.
    /// `bytes(src, dst)` is the block `src` sends to `dst`.
    fn ring_exchange<F: FnMut(Rank, Rank) -> u64>(&mut self, bytes: F);

    /// Binomial-tree broadcast of `bytes` from `root` (mirrors
    /// [`crate::Comm::bcast`]).
    fn bcast(&mut self, root: Rank, bytes: u64) {
        let size = self.size() as usize;
        assert!((root as usize) < size, "root {root} outside 0..{size}");
        if size <= 1 {
            return;
        }
        // Process ranks in increasing *relative* order: a rank's parent has a
        // smaller relative index, so its (receive, forward...) program has
        // already run and this rank's clock already reflects the arrival.
        for rel in 0..size {
            let me = (rel + root as usize) % size;
            // Forward to children in the executed send order: masks descend
            // from just below this rank's receive mask (or from the top for
            // the root).
            let mut mask: usize = 1;
            while mask < size && rel & mask == 0 {
                mask <<= 1;
            }
            mask >>= 1;
            while mask > 0 {
                if rel + mask < size {
                    let child = (rel + mask + root as usize) % size;
                    self.message(me as Rank, child as Rank, bytes);
                }
                mask >>= 1;
            }
        }
    }

    /// Binomial-tree reduction of `bytes` onto `root` (mirrors
    /// [`crate::Comm::reduce`]; the element-wise combine is free, as in the
    /// executed path).
    fn reduce(&mut self, root: Rank, bytes: u64) {
        let size = self.size() as usize;
        assert!((root as usize) < size, "root {root} outside 0..{size}");
        if size <= 1 {
            return;
        }
        // Children have larger relative indices: process them first so each
        // rank's clock includes every child contribution before it forwards
        // to its own parent.
        for rel in (1..size).rev() {
            let me = (rel + root as usize) % size;
            let parent_rel = rel & (rel - 1); // clear the lowest set bit
            let parent = (parent_rel + root as usize) % size;
            self.message(me as Rank, parent as Rank, bytes);
        }
    }

    /// Reduce-to-0 followed by broadcast (mirrors
    /// [`crate::Comm::allreduce`]).
    fn allreduce(&mut self, bytes: u64) {
        self.reduce(0, bytes);
        self.bcast(0, bytes);
    }

    /// Empty allreduce (mirrors [`crate::Comm::barrier`]: one `u8`).
    fn barrier(&mut self) {
        self.allreduce(1);
    }

    /// Linear gather at `root`; `bytes_of(rank)` is each rank's contribution
    /// (mirrors [`crate::Comm::gather`]).
    fn gather<F: FnMut(Rank) -> u64>(&mut self, root: Rank, mut bytes_of: F) {
        let size = self.size();
        assert!(root < size, "root {root} outside 0..{size}");
        for src in 0..size {
            if src != root {
                self.message(src, root, bytes_of(src));
            }
        }
    }

    /// Gather at 0 then broadcast of the concatenation (mirrors
    /// [`crate::Comm::allgather`]).
    fn allgather<F: FnMut(Rank) -> u64>(&mut self, mut bytes_of: F) {
        let total: u64 = (0..self.size()).map(&mut bytes_of).sum();
        self.gather(0, &mut bytes_of);
        self.bcast(0, total);
    }

    /// Linear scatter of `block_bytes` per rank from `root` (mirrors
    /// [`crate::Comm::scatter`]).
    fn scatter(&mut self, root: Rank, block_bytes: u64) {
        let size = self.size();
        assert!(root < size, "root {root} outside 0..{size}");
        for dst in 0..size {
            if dst != root {
                self.message(root, dst, block_bytes);
            }
        }
    }

    /// Ring alltoall of equal `block_bytes` blocks (mirrors
    /// [`crate::Comm::alltoall`]).
    fn alltoall(&mut self, block_bytes: u64) {
        self.alltoallv(move |_, _| block_bytes);
    }

    /// Ring alltoallv; `bytes(src, dst)` is the block `src` sends to `dst`
    /// (mirrors [`crate::Comm::alltoallv`]).
    fn alltoallv<F: FnMut(Rank, Rank) -> u64>(&mut self, bytes: F) {
        self.ring_exchange(bytes);
    }
}

/// Analytical stand-in for a whole communicator: one virtual clock per rank,
/// advanced by the same schedules and cost rules as the executed collectives.
///
/// The collectives come from the [`CollectiveProgram`] trait (bring it into
/// scope to call them); methods mirror [`crate::Comm`]'s but take *byte
/// counts* instead of data (the model never touches payloads).  Per-rank
/// quantities (gather contributions, alltoallv block sizes, compute work)
/// are supplied as closures over the rank index.
pub struct ModelComm {
    hosts: Vec<HostId>,
    residents: Vec<usize>,
    clocks: Vec<SimTime>,
    network: NetworkModel,
    compute: ComputeModel,
    stats: CommStats,
    /// Scratch: per-rank send timestamps within one ring step.
    sent_at: Vec<SimTime>,
}

impl ModelComm {
    /// Builds a model communicator for `placement` over the given cost
    /// models.
    ///
    /// # Panics
    ///
    /// Panics if the placement is invalid or uses replication (replicas only
    /// matter under failure injection, which the analytical model does not
    /// simulate).
    pub fn new(placement: &Placement, network: NetworkModel, compute: ComputeModel) -> ModelComm {
        placement
            .validate()
            .expect("cannot model an invalid placement");
        assert_eq!(
            placement.replication, 1,
            "the analytical model supports unreplicated placements only"
        );
        let n = placement.processes as usize;
        let mut hosts = vec![HostId(0); n];
        for spec in &placement.procs {
            hosts[spec.rank as usize] = spec.host;
        }
        let residents_per_host = placement.residents_per_host();
        let residents = hosts
            .iter()
            .map(|h| residents_per_host[h])
            .collect::<Vec<_>>();
        ModelComm {
            hosts,
            residents,
            clocks: vec![SimTime::ZERO; n],
            network,
            compute,
            stats: CommStats::default(),
            sent_at: vec![SimTime::ZERO; n],
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> u32 {
        self.clocks.len() as u32
    }

    /// The modeled clock of one rank.
    pub fn clock(&self, rank: Rank) -> SimTime {
        self.clocks[rank as usize]
    }

    /// All per-rank clocks.
    pub fn clocks(&self) -> &[SimTime] {
        &self.clocks
    }

    /// The job makespan so far: the largest per-rank clock.
    pub fn makespan(&self) -> SimDuration {
        self.clocks
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO)
            .saturating_since(SimTime::ZERO)
    }

    /// Aggregate modeled traffic and compute counters (what the executed
    /// job's [`CommStats`] would sum to).
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }
}

impl CollectiveProgram for ModelComm {
    fn size(&self) -> u32 {
        self.clocks.len() as u32
    }

    fn compute<F: FnMut(Rank) -> f64>(&mut self, intensity: MemoryIntensity, mut ops_of: F) {
        for rank in 0..self.clocks.len() {
            let ops = ops_of(rank as Rank);
            let t =
                self.compute
                    .compute_time(self.hosts[rank], ops, intensity, self.residents[rank]);
            self.clocks[rank] += t;
            self.stats.compute_ops += ops;
            self.stats.compute_time += t;
        }
    }

    fn advance(&mut self, d: SimDuration) {
        for c in &mut self.clocks {
            *c += d;
        }
    }

    #[inline]
    fn message(&mut self, src: Rank, dst: Rank, bytes: u64) {
        let (src, dst) = (src as usize, dst as usize);
        let overhead = self.network.params().per_message_overhead;
        self.clocks[src] += overhead;
        let transfer = self
            .network
            .transfer_time(self.hosts[src], self.hosts[dst], bytes);
        let arrival = self.clocks[src] + transfer;
        self.clocks[dst] = self.clocks[dst].max(arrival);
        self.stats.messages_sent += 1;
        self.stats.messages_received += 1;
        self.stats.bytes_sent += bytes;
        self.stats.bytes_received += bytes;
    }

    fn ring_exchange<F: FnMut(Rank, Rank) -> u64>(&mut self, mut bytes: F) {
        let size = self.clocks.len();
        if size <= 1 {
            return;
        }
        let overhead = self.network.params().per_message_overhead;
        // Ring schedule: at step s every rank sends to rank+s and then blocks
        // receiving from rank-s.  Two phases per step: all sends are stamped
        // against the pre-step clocks, then every receive takes the max.
        for step in 1..size {
            for (rank, sent) in self.sent_at.iter_mut().enumerate() {
                self.clocks[rank] += overhead;
                *sent = self.clocks[rank];
            }
            for rank in 0..size {
                let src = (rank + size - step) % size;
                let b = bytes(src as Rank, rank as Rank);
                let transfer = self
                    .network
                    .transfer_time(self.hosts[src], self.hosts[rank], b);
                let arrival = self.sent_at[src] + transfer;
                self.clocks[rank] = self.clocks[rank].max(arrival);
                // Each (src → rank) block counts once on each side, as the
                // executed path does.
                self.stats.messages_sent += 1;
                self.stats.messages_received += 1;
                self.stats.bytes_sent += b;
                self.stats.bytes_received += b;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Compiled schedules
// ---------------------------------------------------------------------------

/// One tree message of a compiled schedule.  `class` indexes the
/// schedule's distinct tree byte counts ([`CompiledSchedule::tree_bytes`]),
/// which is what lets [`PlacementCost`] cost a message through a dense
/// `[byte class][link class]` table.
#[derive(Debug, Clone, Copy)]
struct MsgRec {
    src: u32,
    dst: u32,
    class: u32,
}

/// Byte counts of one ring collective, compressed by structure: NAS
/// alltoalls are uniform, IS's balanced alltoallv depends only on the
/// source rank; the general matrix is kept as the fallback.  Equality is
/// what pools ring transfer tables across segments (see [`PlacementCost`]).
#[derive(Debug, Clone, PartialEq)]
enum RingBytes {
    Uniform(u64),
    PerSrc(Box<[u64]>),
    PerPair(Box<[u64]>),
}

impl RingBytes {
    #[inline]
    fn get(&self, n: usize, src: usize, dst: usize) -> u64 {
        match self {
            RingBytes::Uniform(b) => *b,
            RingBytes::PerSrc(rows) => rows[src],
            RingBytes::PerPair(m) => m[src * n + dst],
        }
    }
}

/// One segment of a compiled schedule.
#[derive(Debug, Clone)]
enum Segment {
    /// A compute phase: per-rank abstract operation counts.
    Compute {
        intensity: MemoryIntensity,
        ops: Box<[f64]>,
    },
    /// A run of sequential tree messages (adjacent trees are merged);
    /// `by_rank[r]` lists the indices of the messages touching rank `r`,
    /// ascending — the worklist seed of the delta pass.
    Msgs {
        msgs: Box<[MsgRec]>,
        by_rank: Box<[Box<[u32]>]>,
    },
    /// One full ring exchange (n−1 steps).
    Ring { bytes: RingBytes },
    /// A uniform clock advance.
    Advance { d: SimDuration },
}

/// A placement-independent, flat representation of a whole kernel's
/// collective program, recorded by [`ScheduleBuilder`] and evaluated —
/// incrementally — by [`PlacementCost`].
#[derive(Debug, Clone)]
pub struct CompiledSchedule {
    size: u32,
    segments: Vec<Segment>,
    /// Distinct tree-message byte counts, in first-seen order (the byte
    /// classes [`MsgRec::class`] indexes).
    tree_bytes: Vec<u64>,
}

impl CompiledSchedule {
    /// Number of ranks the schedule was compiled for.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Number of compiled segments (compute phases, merged tree runs,
    /// rings).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The length of a full replay — per-rank compute terms, tree
    /// messages, per-step ring receives and advance terms (the same units
    /// [`PlacementCost::last_delta_ops`] counts), for reporting.
    pub fn op_count(&self) -> usize {
        let n = self.size as usize;
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Compute { ops, .. } => ops.len(),
                Segment::Msgs { msgs, .. } => msgs.len(),
                Segment::Ring { .. } => n.saturating_sub(1) * n,
                Segment::Advance { .. } => n,
            })
            .sum()
    }

    /// Replays the recorded primitive sequence on any other interpreter —
    /// driving a fresh [`ModelComm`] with this is exactly a full model
    /// replay of the original program (the oracle of the delta evaluator).
    pub fn drive<P: CollectiveProgram>(&self, p: &mut P) {
        assert_eq!(p.size(), self.size, "schedule compiled for another size");
        let n = self.size as usize;
        for seg in &self.segments {
            match seg {
                Segment::Compute { intensity, ops } => {
                    p.compute(*intensity, |r| ops[r as usize]);
                }
                Segment::Msgs { msgs, .. } => {
                    for m in msgs.iter() {
                        p.message(m.src, m.dst, self.tree_bytes[m.class as usize]);
                    }
                }
                Segment::Ring { bytes } => {
                    p.ring_exchange(|s, d| bytes.get(n, s as usize, d as usize));
                }
                Segment::Advance { d } => p.advance(*d),
            }
        }
    }
}

/// Records a [`CollectiveProgram`] into a [`CompiledSchedule`].
///
/// Run the kernel's program against a builder (`p2pmpi-nas` exposes
/// `ep_schedule`/`is_schedule` doing exactly that), then [`finish`] it.
///
/// [`finish`]: ScheduleBuilder::finish
pub struct ScheduleBuilder {
    size: u32,
    segments: Vec<Segment>,
    /// Pending tree messages of the segment being built (adjacent trees
    /// merge into one segment).
    open_msgs: Vec<MsgRec>,
    /// Distinct tree byte counts seen so far and their class indices.
    tree_bytes: Vec<u64>,
    tree_class: HashMap<u64, u32>,
}

impl ScheduleBuilder {
    /// Starts an empty schedule for `size` ranks.
    pub fn new(size: u32) -> ScheduleBuilder {
        assert!(size >= 1, "a schedule needs at least one rank");
        ScheduleBuilder {
            size,
            segments: Vec::new(),
            open_msgs: Vec::new(),
            tree_bytes: Vec::new(),
            tree_class: HashMap::new(),
        }
    }

    fn close_msgs(&mut self) {
        if self.open_msgs.is_empty() {
            return;
        }
        let msgs: Box<[MsgRec]> = std::mem::take(&mut self.open_msgs).into_boxed_slice();
        let mut by_rank: Vec<Vec<u32>> = vec![Vec::new(); self.size as usize];
        for (k, m) in msgs.iter().enumerate() {
            by_rank[m.src as usize].push(k as u32);
            if m.dst != m.src {
                by_rank[m.dst as usize].push(k as u32);
            }
        }
        let by_rank: Box<[Box<[u32]>]> =
            by_rank.into_iter().map(|v| v.into_boxed_slice()).collect();
        self.segments.push(Segment::Msgs { msgs, by_rank });
    }

    /// Finalises the recording.
    pub fn finish(mut self) -> CompiledSchedule {
        self.close_msgs();
        CompiledSchedule {
            size: self.size,
            segments: self.segments,
            tree_bytes: self.tree_bytes,
        }
    }
}

impl CollectiveProgram for ScheduleBuilder {
    fn size(&self) -> u32 {
        self.size
    }

    fn compute<F: FnMut(Rank) -> f64>(&mut self, intensity: MemoryIntensity, mut ops_of: F) {
        self.close_msgs();
        let ops: Box<[f64]> = (0..self.size).map(&mut ops_of).collect();
        self.segments.push(Segment::Compute { intensity, ops });
    }

    fn advance(&mut self, d: SimDuration) {
        self.close_msgs();
        self.segments.push(Segment::Advance { d });
    }

    fn message(&mut self, src: Rank, dst: Rank, bytes: u64) {
        let tree_bytes = &mut self.tree_bytes;
        let class = *self.tree_class.entry(bytes).or_insert_with(|| {
            tree_bytes.push(bytes);
            (tree_bytes.len() - 1) as u32
        });
        self.open_msgs.push(MsgRec { src, dst, class });
    }

    fn ring_exchange<F: FnMut(Rank, Rank) -> u64>(&mut self, mut bytes: F) {
        let n = self.size as usize;
        if n <= 1 {
            return;
        }
        self.close_msgs();
        let mut matrix = vec![0u64; n * n];
        for src in 0..n {
            for dst in 0..n {
                matrix[src * n + dst] = bytes(src as Rank, dst as Rank);
            }
        }
        // The ring's steps run 1..n — a rank never exchanges with itself —
        // so the diagonal is ignored when deciding the compressed form
        // (transpose-style alltoallvs send 0 bytes to self but a constant
        // block everywhere else, and must still compress).  A compressed
        // form answers the (never-costed) diagonal query with the
        // off-diagonal value.
        let mut rows: Vec<u64> = Vec::with_capacity(n);
        let per_src_constant = (0..n).all(|src| {
            let row = &matrix[src * n..(src + 1) * n];
            let first = row[if src == 0 { 1 } else { 0 }];
            rows.push(first);
            row.iter()
                .enumerate()
                .all(|(dst, &b)| dst == src || b == first)
        });
        let bytes = if per_src_constant {
            if rows.iter().all(|&b| b == rows[0]) {
                RingBytes::Uniform(rows[0])
            } else {
                RingBytes::PerSrc(rows.into_boxed_slice())
            }
        } else {
            RingBytes::PerPair(matrix.into_boxed_slice())
        };
        self.segments.push(Segment::Ring { bytes });
    }
}

// ---------------------------------------------------------------------------
// The incremental placement evaluator
// ---------------------------------------------------------------------------

/// A candidate move of the placement search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Exchange the hosts of two ranks (resident counts are preserved, so
    /// only the two ranks' own compute and message costs change).
    Swap {
        /// First rank.
        a: Rank,
        /// Second rank.
        b: Rank,
    },
    /// Move one rank to another host (requires an idle slot there; changes
    /// the resident count — and thus every co-resident's compute cost — on
    /// both hosts).
    Migrate {
        /// The rank to move.
        rank: Rank,
        /// Destination host.
        to: HostId,
    },
}

/// Why a move was rejected (the evaluator's state is untouched).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveError {
    /// The destination host has no idle slot.
    CapacityExceeded {
        /// The full host.
        host: HostId,
        /// Its capacity (slots).
        capacity: u32,
    },
}

impl fmt::Display for MoveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MoveError::CapacityExceeded { host, capacity } => {
                write!(f, "{host} is full ({capacity} slots)")
            }
        }
    }
}

impl std::error::Error for MoveError {}

/// Cached clock triple of one tree message.
#[derive(Debug, Clone, Copy)]
struct MsgCache {
    in_src: SimTime,
    in_dst: SimTime,
    out_dst: SimTime,
}

/// Per-segment delta caches (shapes parallel [`Segment`]).
enum SegCache {
    Plain,
    Msgs {
        msgs: Vec<MsgCache>,
    },
    Ring {
        /// Index of the segment's pooled [`RingTable`], or `None` for a
        /// `PerPair` ring, whose wavefront falls back to the transfer memo.
        table: Option<u32>,
    },
}

/// Pooled transfer table of the ring wavefront: one per distinct
/// `Uniform`/`PerSrc` byte structure among the schedule's ring segments.
/// Entries are `NetworkModel::transfer_time` values in nanoseconds — the
/// transfer cost depends only on same-host-ness / the directed site pair
/// and the byte count.
enum RingTable {
    /// A `Uniform` ring sends the same byte count on every edge, so the
    /// whole table collapses to one scalar plus a site×site matrix — both
    /// keyed by static topology data only.  **No move ever invalidates a
    /// `Uniform` table**: `refresh_ring_rows` skips it and the undo journal
    /// never records a row for it.
    Uniform {
        /// Same-host transfer (host-independent loopback cost).
        tsame: u64,
        /// Directed site-pair transfer (`site[src_site * site_count +
        /// dst_site]`).  The diagonal holds the distinct-host intra-site
        /// cost; same-host pairs are patched with `tsame` by the colo list.
        site: Box<[u64]>,
        /// Per-rank expansion of `site` (`rows[src * site_count + site]`,
        /// the row of the source rank's current site), so the wavefront's
        /// hot loop keeps the sequential `PerSrc` row shape.  Part of the
        /// per-assignment ring set-up: rebuilt from `site_of` when the
        /// assignment changes, never journaled.
        rows: Box<[u64]>,
    },
    /// A `PerSrc` ring sends a source-rank-dependent byte count, so the
    /// table keeps per-rank rows that must be re-derived when a rank
    /// changes site.
    PerSrc {
        /// Same-host transfer per source rank (`tsame[src]`).  Loopback
        /// cost is host-independent, so a move never invalidates this half.
        tsame: Box<[u64]>,
        /// Transfer from each source rank's current host to a host at each
        /// destination site (`tsite[src * site_count + site]`).  A moved
        /// rank's row changes only when its *site* changes.
        tsite: Box<[u64]>,
    },
}

/// The undo journal of the in-flight move: the old value of every cache
/// cell the delta pass overwrote.  A move writes each cell at most once, so
/// the three kinds are independent and each is reverted on its own.  Every
/// vector is reserved to its worst case at construction — a rank's
/// boundary per segment, every tree message, two moved ranks' rows per
/// `PerSrc` table — so journaling never allocates.
#[derive(Default)]
struct Journal {
    /// `(segment, rank, old boundary clock)`.
    boundary: Vec<(u32, u32, SimTime)>,
    /// `(segment, message index, old clock triple)`.
    msgs: Vec<(u32, u32, MsgCache)>,
    /// `(pooled table, rank)` of each overwritten `PerSrc` `tsite` row; the
    /// old rows sit back to back in `row_words`, one `site_count` run per
    /// entry, in the same order.
    rows: Vec<(u32, u32)>,
    row_words: Vec<u64>,
}

impl Journal {
    fn clear(&mut self) {
        self.boundary.clear();
        self.msgs.clear();
        self.rows.clear();
        self.row_words.clear();
    }
}

/// Ascending worklist of tree-message indices within one `Msgs` segment: a
/// bitset over the segment's messages plus a scan cursor.  `pop` returns the
/// lowest queued index, so it visits messages in exactly the order a min-heap
/// would — and cheaper, because the delta pass only ever queues, after its
/// first pop, the *next* message of a rank whose clock just changed, an
/// index above the one just popped: the cursor never moves backwards and
/// each word is scanned once.  An index is never re-queued after it was
/// popped, so setting a bit twice is the only de-duplication needed.
struct Worklist {
    words: Vec<u64>,
    /// Lowest word that may hold a queued index (`usize::MAX` when empty).
    cursor: usize,
    /// Highest word that may hold a queued index.
    hi: usize,
}

impl Worklist {
    fn new(capacity: usize) -> Worklist {
        Worklist {
            words: vec![0; capacity.div_ceil(64)],
            cursor: usize::MAX,
            hi: 0,
        }
    }

    #[inline]
    fn push(&mut self, k: u32) {
        let w = k as usize / 64;
        self.words[w] |= 1 << (k % 64);
        self.cursor = self.cursor.min(w);
        self.hi = self.hi.max(w);
    }

    #[inline]
    fn pop(&mut self) -> Option<u32> {
        while self.cursor <= self.hi {
            let bits = self.words[self.cursor];
            if bits != 0 {
                self.words[self.cursor] = bits & (bits - 1);
                return Some((self.cursor * 64) as u32 + bits.trailing_zeros());
            }
            self.cursor += 1;
        }
        // Drained: every word is zero again.
        self.cursor = usize::MAX;
        self.hi = 0;
        None
    }

    /// Queues the next message of a rank after message `k` (`by_rank` is
    /// the rank's ascending message list).
    #[inline]
    fn push_next(&mut self, by_rank: &[u32], k: u32) {
        let pos = by_rank.partition_point(|&i| i <= k);
        if let Some(&next) = by_rank.get(pos) {
            self.push(next);
        }
    }
}

/// The in-flight move awaiting `commit`/`undo`.
struct PendingMove {
    mv: Move,
    /// The source host of a migrate (unused for swaps).
    old_host: HostId,
    /// True when the move changed nothing (same-host swap etc.).
    noop: bool,
    old_makespan: SimDuration,
    old_clock_mean: f64,
}

/// Incremental evaluator of one compiled schedule over a mutable host
/// assignment — the hot path of the placement search.  See the module docs
/// for the delta-evaluation contract (what is cached, what a move
/// invalidates, the exactness guarantee).
///
/// The evaluation protocol is `apply` → (`commit` | `undo`): `apply`
/// performs the move *and* returns the new modeled makespan; `commit` keeps
/// it (O(1)); `undo` restores every cache and the host assignment exactly.
pub struct PlacementCost {
    schedule: Arc<CompiledSchedule>,
    network: NetworkModel,
    compute: ComputeModel,
    overhead: SimDuration,
    site_count: usize,
    /// Host of each rank.
    hosts: Vec<HostId>,
    /// Resident ranks per host id (drives the memory-contention model).
    residents: Vec<u32>,
    /// Slot capacity per host id.
    capacity: Vec<u32>,
    /// Ranks currently resident on each host id.
    ranks_on_host: Vec<Vec<u32>>,
    /// Per-rank clocks at each segment boundary.
    boundary: Vec<Vec<SimTime>>,
    /// All-zero segment entry of the first segment.
    entry: Vec<SimTime>,
    caches: Vec<SegCache>,
    makespan: SimDuration,
    /// Mean final clock in seconds (see [`PlacementCost::mean_clock_secs`]).
    clock_mean: f64,
    /// Memoized LogGP transfer times keyed by (link class, bytes): the
    /// transfer cost depends only on same-host-ness / the site pair, so a
    /// handful of entries covers any schedule.  Off the move path except
    /// for `PerPair` rings, whose byte counts have no dense index.
    edge_cache: HashMap<(u32, u64), SimDuration>,
    /// Tree-message transfer nanoseconds, dense by `[byte class][link
    /// class]` (`tree_ns[class * link_classes + link]`), filled on first
    /// use with the same `NetworkModel::transfer_time` value the memo would
    /// hold; `u64::MAX` marks an entry not yet filled.
    tree_ns: Vec<u64>,
    /// Link classes: same host, plus one per directed site pair.
    link_classes: usize,
    /// Site index of each host id (static topology data, hot in the ring
    /// wavefront and the link class of every tree message).
    host_site: Vec<u32>,
    /// Two representative hosts per site, for building transfer-table rows
    /// (the second repeats the first at single-host sites, whose distinct-
    /// host intra-site entries are unreachable).
    site_rep: Vec<[HostId; 2]>,
    /// Pooled ring transfer tables, shared by every ring segment with the
    /// same byte structure.
    ring_tables: Vec<RingTable>,
    /// The byte structure each pooled table was built for.
    ring_table_keys: Vec<RingBytes>,
    // --- delta scratch ---
    /// Whether a rank's clock currently differs from the cached trajectory.
    dirty_flag: Vec<bool>,
    dirty_val: Vec<SimTime>,
    /// Ranks that may be dirty, each listed at most once (`dirty_listed`);
    /// a rank that re-converges keeps its slot until the next compaction.
    dirty_list: Vec<u32>,
    dirty_listed: Vec<bool>,
    visit_epoch: Vec<u32>,
    epoch: u32,
    worklist: Worklist,
    cand: Vec<u32>,
    /// Ring wavefront rows (per-rank clocks in nanoseconds).
    wf_prev: Vec<u64>,
    wf_cur: Vec<u64>,
    // --- per-assignment ring set-up (see `ensure_ring_setup`) ---
    /// Whether `host_of`, `site_of`, `colo` and every `Uniform` table's
    /// `rows` describe the current host assignment.
    ring_setup_valid: bool,
    /// Per-rank host index / site of the current assignment.
    host_of: Vec<u32>,
    site_of: Vec<u32>,
    /// Co-located `(step, dst, src)` pairs sorted by ring step: the receives
    /// the wavefront patches with the loopback cost.
    colo: Vec<(u32, u32, u32)>,
    moved: Vec<u32>,
    /// Old host of each moved rank (parallel to `moved`).
    moved_old_host: Vec<HostId>,
    compute_affected: Vec<u32>,
    journal: Journal,
    pending: Option<PendingMove>,
    /// Delta operations processed by the last `apply` (diagnostics).
    last_delta_ops: usize,
}

impl PlacementCost {
    /// Builds the evaluator: `hosts[rank]` is the initial assignment,
    /// `capacity[host]` the slot count of every host of the topology.
    /// The construction performs one full replay to fill the caches.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` does not match the schedule's rank count, if
    /// `capacity` does not cover the topology, or if the initial placement
    /// already exceeds a host's capacity.
    pub fn new(
        schedule: Arc<CompiledSchedule>,
        hosts: Vec<HostId>,
        capacity: Vec<u32>,
        network: NetworkModel,
        compute: ComputeModel,
    ) -> PlacementCost {
        let n = schedule.size() as usize;
        assert_eq!(hosts.len(), n, "one host per rank");
        let host_count = network.topology().host_count();
        assert_eq!(capacity.len(), host_count, "one capacity per host");
        let mut residents = vec![0u32; host_count];
        let mut ranks_on_host: Vec<Vec<u32>> = vec![Vec::new(); host_count];
        for (r, &h) in hosts.iter().enumerate() {
            residents[h.0] += 1;
            ranks_on_host[h.0].push(r as u32);
        }
        for (h, (&used, &cap)) in residents.iter().zip(&capacity).enumerate() {
            assert!(
                used <= cap,
                "initial placement puts {used} ranks on {} (capacity {cap})",
                HostId(h)
            );
        }
        let caches = schedule
            .segments
            .iter()
            .map(|seg| match seg {
                Segment::Msgs { msgs, .. } => SegCache::Msgs {
                    msgs: vec![
                        MsgCache {
                            in_src: SimTime::ZERO,
                            in_dst: SimTime::ZERO,
                            out_dst: SimTime::ZERO,
                        };
                        msgs.len()
                    ],
                },
                Segment::Ring { .. } => SegCache::Ring { table: None },
                _ => SegCache::Plain,
            })
            .collect();
        let boundary = vec![vec![SimTime::ZERO; n]; schedule.segments.len()];
        let (mut max_msgs, mut total_msgs) = (0usize, 0usize);
        for seg in &schedule.segments {
            if let Segment::Msgs { msgs, .. } = seg {
                max_msgs = max_msgs.max(msgs.len());
                total_msgs += msgs.len();
            }
        }
        let overhead = network.params().per_message_overhead;
        let topology = network.topology();
        let site_count = topology.site_count();
        let link_classes = 1 + site_count * site_count;
        let tree_ns = vec![u64::MAX; schedule.tree_bytes.len() * link_classes];
        let host_site: Vec<u32> = topology.hosts().iter().map(|h| h.site.0 as u32).collect();
        let mut site_rep = vec![[HostId(0); 2]; site_count];
        let mut reps_seen = vec![0u8; site_count];
        for h in topology.hosts() {
            let s = h.site.0;
            match reps_seen[s] {
                0 => {
                    site_rep[s] = [h.id, h.id];
                    reps_seen[s] = 1;
                }
                1 => {
                    site_rep[s][1] = h.id;
                    reps_seen[s] = 2;
                }
                _ => {}
            }
        }
        let segment_count = schedule.segments.len();
        let mut cost = PlacementCost {
            schedule,
            network,
            compute,
            overhead,
            site_count,
            hosts,
            residents,
            capacity,
            ranks_on_host,
            boundary,
            entry: vec![SimTime::ZERO; n],
            caches,
            makespan: SimDuration::ZERO,
            clock_mean: 0.0,
            edge_cache: HashMap::new(),
            tree_ns,
            link_classes,
            host_site,
            site_rep,
            ring_tables: Vec::new(),
            ring_table_keys: Vec::new(),
            dirty_flag: vec![false; n],
            dirty_val: vec![SimTime::ZERO; n],
            dirty_list: Vec::with_capacity(n),
            dirty_listed: vec![false; n],
            visit_epoch: vec![0; n],
            epoch: 0,
            worklist: Worklist::new(max_msgs),
            cand: Vec::with_capacity(n),
            wf_prev: vec![0; n],
            wf_cur: vec![0; n],
            ring_setup_valid: false,
            host_of: vec![0; n],
            site_of: vec![0; n],
            colo: Vec::new(),
            moved: Vec::with_capacity(2),
            moved_old_host: Vec::with_capacity(2),
            compute_affected: Vec::with_capacity(n),
            journal: Journal::default(),
            pending: None,
            last_delta_ops: 0,
        };
        cost.build_ring_tables();
        let per_src_tables = cost
            .ring_tables
            .iter()
            .filter(|t| matches!(t, RingTable::PerSrc { .. }))
            .count();
        cost.journal.boundary.reserve(n * segment_count);
        cost.journal.msgs.reserve(total_msgs);
        cost.journal.rows.reserve(2 * per_src_tables);
        cost.journal
            .row_words
            .reserve(2 * per_src_tables * site_count);
        cost.reserve_for_capacity();
        cost.rebuild();
        cost
    }

    /// The modeled makespan of the current host assignment.
    pub fn cost(&self) -> SimDuration {
        self.makespan
    }

    /// Mean final per-rank clock, in seconds.  A makespan objective is a
    /// `max()` full of plateaus — moving one rank off the slowest host
    /// usually leaves the maximum unchanged — so annealing drivers blend a
    /// small multiple of this into their acceptance energy to restore a
    /// gradient across those plateaus (best-placement tracking stays on the
    /// pure makespan).  Maintained by the same O(ranks) scan as the
    /// makespan, and restored exactly by `undo`.
    pub fn mean_clock_secs(&self) -> f64 {
        self.clock_mean
    }

    /// The current host of every rank.
    pub fn hosts(&self) -> &[HostId] {
        &self.hosts
    }

    /// The final per-rank clocks of the current assignment.
    pub fn clocks(&self) -> &[SimTime] {
        self.boundary.last().unwrap_or(&self.entry)
    }

    /// Ranks currently resident on `host`.
    pub fn residents_on(&self, host: HostId) -> u32 {
        self.residents[host.0]
    }

    /// Idle slots left on `host`.
    pub fn free_on(&self, host: HostId) -> u32 {
        self.capacity[host.0] - self.residents[host.0]
    }

    /// Delta operations (messages, ring receives, compute terms) evaluated
    /// by the last `apply` — the quantity the O(affected) claim is about.
    pub fn last_delta_ops(&self) -> usize {
        self.last_delta_ops
    }

    /// The current assignment as a [`Placement`].
    pub fn to_placement(&self) -> Placement {
        Placement {
            processes: self.hosts.len() as u32,
            replication: 1,
            procs: self
                .hosts
                .iter()
                .enumerate()
                .map(|(rank, &host)| ProcSpec {
                    rank: rank as Rank,
                    replica: 0,
                    host,
                })
                .collect(),
        }
    }

    /// Full model replay of the current assignment on a fresh [`ModelComm`]
    /// — the oracle the delta caches are verified against (and the baseline
    /// of the ≥5× per-move speedup gate in `perf_report`).
    pub fn oracle_clocks(&self) -> Vec<SimTime> {
        let placement = self.to_placement();
        let mut m = ModelComm::new(&placement, self.network.clone(), self.compute.clone());
        self.schedule.drive(&mut m);
        m.clocks().to_vec()
    }

    /// The oracle's makespan (see [`PlacementCost::oracle_clocks`]).
    pub fn oracle_cost(&self) -> SimDuration {
        let placement = self.to_placement();
        let mut m = ModelComm::new(&placement, self.network.clone(), self.compute.clone());
        self.schedule.drive(&mut m);
        m.makespan()
    }

    /// Applies `mv` and returns the new modeled makespan, delta-evaluated.
    /// The move stays in flight until [`PlacementCost::commit`] or
    /// [`PlacementCost::undo`].  A capacity-violating migrate returns an
    /// error and leaves every piece of state untouched.
    ///
    /// # Panics
    ///
    /// Panics if a previous move is still in flight or a rank/host index is
    /// out of range.
    pub fn apply(&mut self, mv: Move) -> Result<SimDuration, MoveError> {
        assert!(
            self.pending.is_none(),
            "commit or undo the previous move before applying another"
        );
        let n = self.hosts.len() as u32;
        self.moved.clear();
        self.moved_old_host.clear();
        self.compute_affected.clear();
        let mut noop = false;
        let mut old_host = HostId(0);
        match mv {
            Move::Swap { a, b } => {
                assert!(a < n && b < n, "swap ranks out of range");
                let (ha, hb) = (self.hosts[a as usize], self.hosts[b as usize]);
                if a == b || ha == hb {
                    noop = true;
                } else {
                    self.hosts[a as usize] = hb;
                    self.hosts[b as usize] = ha;
                    remove_rank(&mut self.ranks_on_host[ha.0], a);
                    remove_rank(&mut self.ranks_on_host[hb.0], b);
                    self.ranks_on_host[hb.0].push(a);
                    self.ranks_on_host[ha.0].push(b);
                    self.moved.extend([a, b]);
                    self.moved_old_host.extend([ha, hb]);
                    // A swap preserves every resident count: only the two
                    // ranks' own compute costs can change.
                    self.compute_affected.extend([a, b]);
                }
            }
            Move::Migrate { rank, to } => {
                assert!(rank < n, "migrate rank out of range");
                assert!(to.0 < self.capacity.len(), "migrate host out of range");
                let from = self.hosts[rank as usize];
                if from == to {
                    noop = true;
                } else if self.residents[to.0] >= self.capacity[to.0] {
                    return Err(MoveError::CapacityExceeded {
                        host: to,
                        capacity: self.capacity[to.0],
                    });
                } else {
                    self.hosts[rank as usize] = to;
                    self.residents[from.0] -= 1;
                    self.residents[to.0] += 1;
                    remove_rank(&mut self.ranks_on_host[from.0], rank);
                    self.ranks_on_host[to.0].push(rank);
                    self.moved.push(rank);
                    self.moved_old_host.push(from);
                    old_host = from;
                    // Resident counts changed on both hosts: every rank
                    // still (or newly) living there re-costs its compute.
                    self.compute_affected
                        .extend_from_slice(&self.ranks_on_host[from.0]);
                    self.compute_affected
                        .extend_from_slice(&self.ranks_on_host[to.0]);
                }
            }
        }
        let old_makespan = self.makespan;
        let old_clock_mean = self.clock_mean;
        self.pending = Some(PendingMove {
            mv,
            old_host,
            noop,
            old_makespan,
            old_clock_mean,
        });
        if !noop {
            self.ring_setup_valid = false;
            self.delta_eval();
        } else {
            self.last_delta_ops = 0;
        }
        Ok(self.makespan)
    }

    /// Keeps the in-flight move (O(1): the caches already describe it).
    ///
    /// # Panics
    ///
    /// Panics if no move is in flight.
    pub fn commit(&mut self) {
        self.pending.take().expect("no move to commit");
        self.journal.clear();
    }

    /// Reverts the in-flight move: every journaled cache cell, the host
    /// assignment and the resident bookkeeping return to their pre-`apply`
    /// state exactly.
    ///
    /// # Panics
    ///
    /// Panics if no move is in flight.
    pub fn undo(&mut self) {
        let p = self.pending.take().expect("no move to undo");
        let journal = &mut self.journal;
        // Newest first, so a cell journaled twice would end at its oldest
        // value (the delta pass writes each cell at most once per move).
        for &(seg, rank, old) in journal.boundary.iter().rev() {
            self.boundary[seg as usize][rank as usize] = old;
        }
        for &(seg, idx, old) in journal.msgs.iter().rev() {
            let SegCache::Msgs { msgs } = &mut self.caches[seg as usize] else {
                unreachable!("segment/cache shape mismatch")
            };
            msgs[idx as usize] = old;
        }
        let s = self.site_count;
        let old_rows = journal.row_words.chunks_exact(s).rev();
        for (&(table, rank), old) in journal.rows.iter().rev().zip(old_rows) {
            let RingTable::PerSrc { tsite, .. } = &mut self.ring_tables[table as usize] else {
                unreachable!("Uniform ring tables are never journaled")
            };
            tsite[rank as usize * s..][..s].copy_from_slice(old);
        }
        journal.clear();
        self.makespan = p.old_makespan;
        self.clock_mean = p.old_clock_mean;
        if !p.noop {
            match p.mv {
                Move::Swap { a, b } => {
                    let (ha, hb) = (self.hosts[a as usize], self.hosts[b as usize]);
                    self.hosts[a as usize] = hb;
                    self.hosts[b as usize] = ha;
                    remove_rank(&mut self.ranks_on_host[ha.0], a);
                    remove_rank(&mut self.ranks_on_host[hb.0], b);
                    self.ranks_on_host[hb.0].push(a);
                    self.ranks_on_host[ha.0].push(b);
                }
                Move::Migrate { rank, to } => {
                    self.hosts[rank as usize] = p.old_host;
                    self.residents[to.0] -= 1;
                    self.residents[p.old_host.0] += 1;
                    remove_rank(&mut self.ranks_on_host[to.0], rank);
                    self.ranks_on_host[p.old_host.0].push(rank);
                }
            }
            self.ring_setup_valid = false;
        }
    }

    /// Re-parks the evaluator on `new_hosts` under its *current*
    /// capacities: [`Self::rebase`] with the capacity vector unchanged.
    ///
    /// The online searcher parks each pooled evaluator on the annealed
    /// best placement after a walk — the walk itself ends wherever its
    /// last accepted move left it, typically dozens of ranks away from
    /// the best.  Without the re-park, the next arrival's rebase diff is
    /// churn *plus* that annealing drift, which degenerates into the
    /// wholesale path on every arrival; with it, the diff is the
    /// occupancy churn alone.
    pub fn rehome(&mut self, new_hosts: &[HostId]) -> SimDuration {
        let caps = self.capacity.clone();
        self.rebase(new_hosts, &caps)
    }

    /// Re-synchronizes a *warm* evaluator with the grid state of a new
    /// arrival: adopts `new_hosts` as the rank assignment and
    /// `new_capacity` as the per-host slot capacities.  This is the
    /// cross-job half of the warm-reuse story (see the module docs):
    /// between two arrivals of the same kernel shape only a handful of
    /// occupy/release events happened, so the diff against the cached
    /// assignment is usually empty — the O(hosts) capacity-resync early
    /// return — and otherwise small enough that a segment re-run over the
    /// warm caches (no schedule compile, no allocations, no ring-table
    /// build) is the cheapest way to absorb it.
    ///
    /// Capacity changes alone dirty no clocks — the memory-contention model
    /// keys on `residents`, which counts only this schedule's own ranks —
    /// so a pure capacity resync is O(hosts).  The rebase has commit
    /// semantics: the undo journal is cleared, no move can be undone across
    /// it.  The resulting caches are bit-identical to a fresh
    /// [`PlacementCost::new`] with the same arguments, which is what makes
    /// the warm online-search path exact (pinned by proptest).
    ///
    /// Returns the re-evaluated makespan.
    ///
    /// # Panics
    ///
    /// Panics if a move is in flight, if the slice lengths do not match the
    /// schedule/topology, or if the new assignment oversubscribes a host
    /// under the new capacities.
    pub fn rebase(&mut self, new_hosts: &[HostId], new_capacity: &[u32]) -> SimDuration {
        assert!(
            self.pending.is_none(),
            "commit or undo the in-flight move before rebasing"
        );
        assert_eq!(
            new_hosts.len(),
            self.hosts.len(),
            "rebase changes hosts, not the rank count"
        );
        assert_eq!(
            new_capacity.len(),
            self.capacity.len(),
            "one capacity per host"
        );
        self.capacity.copy_from_slice(new_capacity);
        self.reserve_for_capacity();
        self.moved.clear();
        self.moved_old_host.clear();
        self.compute_affected.clear();
        let n = self.hosts.len();
        let moved_count = new_hosts
            .iter()
            .zip(&self.hosts)
            .filter(|(new_h, old_h)| new_h != old_h)
            .count();
        if moved_count == 0 {
            self.assert_within_capacity();
            self.last_delta_ops = 0;
            return self.makespan;
        }
        // Any moved rank goes wholesale: a collective segment touches
        // every rank, so even a one-rank diff dirties essentially the
        // whole schedule and the journaled delta machinery (per-receive
        // patches, ring re-runs from the earliest touched step) costs
        // *more* than re-running every segment once over the warm caches
        // — measured at every day-mix shape from EP@64 up, and within a
        // microsecond of break-even below that.  Adopt the assignment and
        // rebuild in place: the caches end bit-identical to a fresh
        // [`PlacementCost::new`] either way, and the rebuild skips what
        // actually dominates a cold arrival — the schedule compile, the
        // allocations and the ring-table build.  The zero-diff early
        // return above is the warm fast path the steady-state regime
        // lives on.
        self.resync_ring_rows(new_hosts);
        self.hosts.copy_from_slice(new_hosts);
        self.residents.iter_mut().for_each(|r| *r = 0);
        self.ranks_on_host.iter_mut().for_each(Vec::clear);
        for (r, &h) in self.hosts.iter().enumerate() {
            self.residents[h.0] += 1;
            self.ranks_on_host[h.0].push(r as u32);
        }
        self.assert_within_capacity();
        self.rebuild();
        self.journal.clear();
        self.last_delta_ops = n * self.schedule.segments.len();
        self.makespan
    }

    fn assert_within_capacity(&self) {
        for (h, (&used, &cap)) in self.residents.iter().zip(&self.capacity).enumerate() {
            assert!(
                used <= cap,
                "rebase puts {used} ranks on {} (capacity {cap})",
                HostId(h)
            );
        }
    }

    // -- internals ---------------------------------------------------------

    /// Link class of a host pair: the transfer cost depends only on
    /// same-host-ness and the (directed) site pair.
    #[inline]
    fn link_class(&self, a: HostId, b: HostId) -> usize {
        if a == b {
            return 0;
        }
        let sa = self.host_site[a.0] as usize;
        let sb = self.host_site[b.0] as usize;
        1 + sa * self.site_count + sb
    }

    /// Memoized transfer time (ring-table builds and the `PerPair` ring
    /// fallback).
    #[inline]
    fn transfer(&mut self, a: HostId, b: HostId, bytes: u64) -> SimDuration {
        let key = (self.link_class(a, b) as u32, bytes);
        let network = &self.network;
        *self
            .edge_cache
            .entry(key)
            .or_insert_with(|| network.transfer_time(a, b, bytes))
    }

    /// Transfer time of a tree message of byte class `class` from rank
    /// `s`'s host to rank `d`'s, through the dense `tree_ns` table.
    #[inline]
    fn tree_transfer(&mut self, class: u32, s: usize, d: usize) -> SimDuration {
        let (a, b) = (self.hosts[s], self.hosts[d]);
        let slot = class as usize * self.link_classes + self.link_class(a, b);
        let mut ns = self.tree_ns[slot];
        if ns == u64::MAX {
            let bytes = self.schedule.tree_bytes[class as usize];
            ns = self.network.transfer_time(a, b, bytes).as_nanos();
            self.tree_ns[slot] = ns;
        }
        SimDuration::from_nanos(ns)
    }

    /// Reserves the per-host resident lists and the co-location list for
    /// the current capacities, so that no move can grow them.
    fn reserve_for_capacity(&mut self) {
        let n = self.hosts.len();
        let mut max_residents = 0usize;
        for (list, &cap) in self.ranks_on_host.iter_mut().zip(&self.capacity) {
            let cap = (cap as usize).min(n);
            list.reserve(cap.saturating_sub(list.len()));
            max_residents = max_residents.max(cap);
        }
        if !self.ring_tables.is_empty() {
            // Each rank pairs with at most `max_residents - 1` co-residents.
            let pairs = n * max_residents.saturating_sub(1);
            self.colo.reserve(pairs.saturating_sub(self.colo.len()));
        }
    }

    #[inline]
    fn compute_cost(&self, rank: usize, ops: f64, intensity: MemoryIntensity) -> SimDuration {
        let h = self.hosts[rank];
        self.compute
            .compute_time(h, ops, intensity, self.residents[h.0] as usize)
    }

    #[inline]
    fn set_dirty(&mut self, r: u32, v: SimTime) {
        let ri = r as usize;
        self.dirty_flag[ri] = true;
        if !self.dirty_listed[ri] {
            self.dirty_listed[ri] = true;
            self.dirty_list.push(r);
        }
        self.dirty_val[ri] = v;
    }

    /// Empties the dirty set.
    fn clear_dirty(&mut self) {
        for &r in &self.dirty_list {
            self.dirty_flag[r as usize] = false;
            self.dirty_listed[r as usize] = false;
        }
        self.dirty_list.clear();
    }

    /// Entry clocks of segment `seg` for a clean rank.
    #[inline]
    fn entry_clock(&self, seg: usize, rank: usize) -> SimTime {
        if seg == 0 {
            SimTime::ZERO
        } else {
            self.boundary[seg - 1][rank]
        }
    }

    /// Full replay filling every cache (construction only; moves maintain
    /// the caches incrementally).
    fn rebuild(&mut self) {
        self.ring_setup_valid = false;
        let schedule = self.schedule.clone();
        let n = schedule.size() as usize;
        let mut clocks = vec![SimTime::ZERO; n];
        for (seg, segment) in schedule.segments.iter().enumerate() {
            match segment {
                Segment::Compute { intensity, ops } => {
                    for (r, c) in clocks.iter_mut().enumerate() {
                        let h = self.hosts[r];
                        *c += self.compute.compute_time(
                            h,
                            ops[r],
                            *intensity,
                            self.residents[h.0] as usize,
                        );
                    }
                }
                Segment::Msgs { msgs, .. } => {
                    for (k, m) in msgs.iter().enumerate() {
                        let (s, d) = (m.src as usize, m.dst as usize);
                        let in_src = clocks[s];
                        let in_dst = clocks[d];
                        let out_src = in_src + self.overhead;
                        let t = self.tree_transfer(m.class, s, d);
                        let out_dst = in_dst.max(out_src + t);
                        clocks[s] = out_src;
                        clocks[d] = out_dst;
                        if let SegCache::Msgs { msgs: cache, .. } = &mut self.caches[seg] {
                            cache[k] = MsgCache {
                                in_src,
                                in_dst,
                                out_dst,
                            };
                        }
                    }
                }
                Segment::Ring { bytes } => {
                    if n > 1 {
                        let SegCache::Ring { table } = &self.caches[seg] else {
                            unreachable!("segment/cache shape mismatch")
                        };
                        let table = *table;
                        for (slot, c) in self.wf_prev.iter_mut().zip(&clocks) {
                            *slot = c.as_nanos();
                        }
                        self.ring_wavefront(bytes, table);
                        for (c, &ns) in clocks.iter_mut().zip(&self.wf_prev) {
                            *c = SimTime::from_nanos(ns);
                        }
                    }
                }
                Segment::Advance { d } => {
                    for c in &mut clocks {
                        *c += *d;
                    }
                }
            }
            self.boundary[seg].copy_from_slice(&clocks);
        }
        let (max, sum) = max_and_sum(&clocks);
        self.makespan = max.saturating_since(SimTime::ZERO);
        self.clock_mean = sum / clocks.len().max(1) as f64;
    }

    /// The delta pass: propagate the in-flight move through every segment,
    /// journaling each cache mutation.
    fn delta_eval(&mut self) {
        let schedule = self.schedule.clone();
        let moved = std::mem::take(&mut self.moved);
        let old_hosts = std::mem::take(&mut self.moved_old_host);
        let affected = std::mem::take(&mut self.compute_affected);
        debug_assert!(self.dirty_list.is_empty());
        let mut delta_ops = self.refresh_ring_rows(&moved, &old_hosts);

        for (seg, segment) in schedule.segments.iter().enumerate() {
            match segment {
                Segment::Compute { intensity, ops } => {
                    delta_ops += self.delta_compute(seg, *intensity, ops, &affected);
                }
                Segment::Msgs { msgs, by_rank } => {
                    delta_ops += self.delta_msgs(seg, msgs, by_rank, &moved);
                }
                Segment::Ring { bytes } => {
                    delta_ops += self.delta_ring(seg, bytes, &moved);
                }
                Segment::Advance { d } => {
                    delta_ops += self.delta_advance(seg, *d);
                }
            }
        }

        // New makespan and mean: the final boundary holds the committed
        // clocks of clean ranks and the just-written clocks of dirty ones.
        let finals = self.boundary.last().unwrap_or(&self.entry);
        let (max, sum) = max_and_sum(finals);
        self.makespan = max.saturating_since(SimTime::ZERO);
        self.clock_mean = sum / finals.len().max(1) as f64;

        self.clear_dirty();
        self.moved = moved;
        self.moved_old_host = old_hosts;
        self.compute_affected = affected;
        self.last_delta_ops = delta_ops;
    }

    /// Compacts the dirty list to the currently-dirty ranks and copies it
    /// into `self.cand`.
    fn gather_dirty(&mut self) {
        let (flag, listed) = (&self.dirty_flag, &mut self.dirty_listed);
        self.dirty_list.retain(|&r| {
            let keep = flag[r as usize];
            listed[r as usize] = keep;
            keep
        });
        self.cand.clear();
        self.cand.extend_from_slice(&self.dirty_list);
    }

    fn delta_compute(
        &mut self,
        seg: usize,
        intensity: MemoryIntensity,
        ops: &[f64],
        affected: &[u32],
    ) -> usize {
        self.gather_dirty();
        self.epoch += 1;
        let ep = self.epoch;
        let mut cand = std::mem::take(&mut self.cand);
        for &r in &cand {
            self.visit_epoch[r as usize] = ep;
        }
        for &r in affected {
            if self.visit_epoch[r as usize] != ep {
                self.visit_epoch[r as usize] = ep;
                cand.push(r);
            }
        }
        for &r in &cand {
            let ri = r as usize;
            let in_v = if self.dirty_flag[ri] {
                self.dirty_val[ri]
            } else {
                self.entry_clock(seg, ri)
            };
            let out = in_v + self.compute_cost(ri, ops[ri], intensity);
            let cached = self.boundary[seg][ri];
            if out != cached {
                self.journal.boundary.push((seg as u32, r, cached));
                self.boundary[seg][ri] = out;
                self.set_dirty(r, out);
            } else {
                self.dirty_flag[ri] = false;
            }
        }
        let n = cand.len();
        self.cand = cand;
        n
    }

    fn delta_advance(&mut self, seg: usize, d: SimDuration) -> usize {
        self.gather_dirty();
        let cand = std::mem::take(&mut self.cand);
        for &r in &cand {
            let ri = r as usize;
            let out = self.dirty_val[ri] + d;
            let cached = self.boundary[seg][ri];
            if out != cached {
                self.journal.boundary.push((seg as u32, r, cached));
                self.boundary[seg][ri] = out;
                self.dirty_val[ri] = out;
            } else {
                self.dirty_flag[ri] = false;
            }
        }
        let n = cand.len();
        self.cand = cand;
        n
    }

    /// Updates the segment's boundary from the ranks still dirty at its end
    /// (their boundary value necessarily changed; see the module docs).
    fn sweep_boundary(&mut self, seg: usize) {
        self.gather_dirty();
        let cand = std::mem::take(&mut self.cand);
        for &r in &cand {
            let ri = r as usize;
            let old = self.boundary[seg][ri];
            let new = self.dirty_val[ri];
            if old != new {
                self.journal.boundary.push((seg as u32, r, old));
                self.boundary[seg][ri] = new;
            } else {
                // The clock re-converged exactly onto the cached boundary.
                self.dirty_flag[ri] = false;
            }
        }
        self.cand = cand;
    }

    fn delta_msgs(
        &mut self,
        seg: usize,
        msgs: &[MsgRec],
        by_rank: &[Box<[u32]>],
        moved: &[u32],
    ) -> usize {
        let mut cache = std::mem::replace(&mut self.caches[seg], SegCache::Plain);
        let SegCache::Msgs { msgs: mcache } = &mut cache else {
            unreachable!("segment/cache shape mismatch")
        };
        // Seed: the first message of every entry-dirty rank, every message
        // of a moved rank (their transfer costs changed).
        for &r in &self.dirty_list {
            if self.dirty_flag[r as usize] {
                if let Some(&k) = by_rank[r as usize].first() {
                    self.worklist.push(k);
                }
            }
        }
        for &m in moved {
            for &k in by_rank[m as usize].iter() {
                self.worklist.push(k);
            }
        }
        let mut processed = 0usize;
        while let Some(k) = self.worklist.pop() {
            processed += 1;
            let m = msgs[k as usize];
            let (s, d) = (m.src as usize, m.dst as usize);
            let old = mcache[k as usize];
            let in_src = if self.dirty_flag[s] {
                self.dirty_val[s]
            } else {
                old.in_src
            };
            let in_dst = if self.dirty_flag[d] {
                self.dirty_val[d]
            } else {
                old.in_dst
            };
            let out_src = in_src + self.overhead;
            let t = self.tree_transfer(m.class, s, d);
            let out_dst = in_dst.max(out_src + t);
            if in_src != old.in_src || in_dst != old.in_dst || out_dst != old.out_dst {
                self.journal.msgs.push((seg as u32, k, old));
                mcache[k as usize] = MsgCache {
                    in_src,
                    in_dst,
                    out_dst,
                };
            }
            // The sender's post-message clock changes exactly when its input
            // did (the overhead is constant).
            if in_src != old.in_src {
                self.set_dirty(m.src, out_src);
                self.worklist.push_next(&by_rank[s], k);
            } else {
                self.dirty_flag[s] = false;
            }
            if out_dst != old.out_dst {
                self.set_dirty(m.dst, out_dst);
                self.worklist.push_next(&by_rank[d], k);
            } else {
                self.dirty_flag[d] = false;
            }
        }
        self.caches[seg] = cache;
        self.sweep_boundary(seg);
        processed
    }

    /// Re-derives one ring segment with the two-row wavefront.  A move
    /// perturbs the transfer cost of a moved rank against *every* partner,
    /// and the ring's max-plus recurrence can carry that to any exit clock,
    /// so the delta pass re-runs all n−1 steps — but over the pooled
    /// integer tables, which is what makes it several times cheaper than a
    /// replay (see the module docs).
    fn delta_ring(&mut self, seg: usize, bytes: &RingBytes, _moved: &[u32]) -> usize {
        let n = self.hosts.len();
        if n <= 1 {
            return 0;
        }
        let SegCache::Ring { table } = &self.caches[seg] else {
            unreachable!("segment/cache shape mismatch")
        };
        let table = *table;
        // Entry row: the committed segment entry with dirty overrides.
        for r in 0..n {
            let c = if self.dirty_flag[r] {
                self.dirty_val[r]
            } else {
                self.entry_clock(seg, r)
            };
            self.wf_prev[r] = c.as_nanos();
        }
        self.ring_wavefront(bytes, table);
        // Flip the frontier: exactly the ranks whose exit clock changed are
        // dirty entering the next segment.
        self.clear_dirty();
        for d in 0..n {
            let new = SimTime::from_nanos(self.wf_prev[d]);
            let old = self.boundary[seg][d];
            if new != old {
                self.journal.boundary.push((seg as u32, d as u32, old));
                self.boundary[seg][d] = new;
                self.set_dirty(d as u32, new);
            }
        }
        (n - 1) * n
    }

    /// Builds the pooled ring transfer tables and points each ring
    /// segment's cache at its table (construction only).
    fn build_ring_tables(&mut self) {
        let schedule = self.schedule.clone();
        let n = self.hosts.len();
        let s_count = self.site_count;
        let mut tables: Vec<RingTable> = Vec::new();
        let mut keys: Vec<RingBytes> = Vec::new();
        for (seg, segment) in schedule.segments.iter().enumerate() {
            let Segment::Ring { bytes } = segment else {
                continue;
            };
            let idx = if matches!(bytes, RingBytes::PerPair(_)) {
                None
            } else if let Some(i) = keys.iter().position(|k| k == bytes) {
                Some(i as u32)
            } else if let RingBytes::Uniform(b) = bytes {
                // Uniform rings send the same byte count on every edge, so
                // the table is a site×site matrix keyed by static topology
                // data only — fully move-invariant, no journaling ever.
                let b = *b;
                let mut site = vec![0u64; s_count * s_count].into_boxed_slice();
                for sa in 0..s_count {
                    let src = self.site_rep[sa][0];
                    for sb in 0..s_count {
                        let rep = self.site_rep[sb];
                        // The diagonal wants the distinct-host intra-site
                        // cost; same-host pairs are patched by the colo
                        // list, so a single-host site's loopback entry here
                        // is unreachable (but harmless).
                        let dst = if rep[0] != src { rep[0] } else { rep[1] };
                        site[sa * s_count + sb] = self.transfer(src, dst, b).as_nanos();
                    }
                }
                let rep = self.site_rep[0][0];
                let tsame = self.transfer(rep, rep, b).as_nanos();
                keys.push(bytes.clone());
                tables.push(RingTable::Uniform {
                    tsame,
                    site,
                    rows: vec![0u64; n * s_count].into_boxed_slice(),
                });
                Some((tables.len() - 1) as u32)
            } else {
                let mut tsame = vec![0u64; n].into_boxed_slice();
                let mut tsite = vec![0u64; n * s_count].into_boxed_slice();
                for src in 0..n {
                    // For PerSrc the byte count is destination-independent;
                    // the dst argument is arbitrary.
                    let b = bytes.get(n, src, 0);
                    let h = self.hosts[src];
                    tsame[src] = self.transfer(h, h, b).as_nanos();
                    self.fill_site_row(&mut tsite[src * s_count..][..s_count], h, b);
                }
                keys.push(bytes.clone());
                tables.push(RingTable::PerSrc { tsame, tsite });
                Some((tables.len() - 1) as u32)
            };
            self.caches[seg] = SegCache::Ring { table: idx };
        }
        self.ring_tables = tables;
        self.ring_table_keys = keys;
    }

    /// Fills `row[site]` with the transfer time of `bytes` from host `h` to
    /// a distinct host at each site — one `tsite` row of a `PerSrc` table.
    /// Costed with `NetworkModel::transfer_time` directly (the value the
    /// memo would return) so that a move's row refresh hashes nothing.
    fn fill_site_row(&self, row: &mut [u64], h: HostId, bytes: u64) {
        for (rep, slot) in self.site_rep.iter().zip(row) {
            let dst = if rep[0] != h { rep[0] } else { rep[1] };
            *slot = self.network.transfer_time(h, dst, bytes).as_nanos();
        }
    }

    /// Rewrites the `tsite` row of every moved rank whose site changed, in
    /// every pooled `PerSrc` table, journaling the old rows.  `Uniform`
    /// tables are move-invariant and skipped entirely; `tsame` never
    /// changes (loopback cost is host-independent) and a same-site move
    /// keeps the rank's site-pair classes, so most moves touch nothing.
    fn refresh_ring_rows(&mut self, moved: &[u32], old_hosts: &[HostId]) -> usize {
        if self.ring_tables.is_empty() {
            return 0;
        }
        let mut ops = 0usize;
        let mut tables = std::mem::take(&mut self.ring_tables);
        let n = self.hosts.len();
        let s_count = self.site_count;
        for (&r, &old_h) in moved.iter().zip(old_hosts) {
            let new_h = self.hosts[r as usize];
            if self.host_site[old_h.0] == self.host_site[new_h.0] {
                continue;
            }
            for (ti, (table, key)) in tables.iter_mut().zip(&self.ring_table_keys).enumerate() {
                let RingTable::PerSrc { tsite, .. } = table else {
                    continue;
                };
                let b = key.get(n, r as usize, 0);
                let row = &mut tsite[r as usize * s_count..][..s_count];
                self.journal.rows.push((ti as u32, r));
                self.journal.row_words.extend_from_slice(row);
                self.fill_site_row(row, new_h, b);
                ops += s_count;
            }
        }
        self.ring_tables = tables;
        ops
    }

    /// The wholesale-rebase counterpart of [`Self::refresh_ring_rows`]:
    /// rewrites the `tsite` row of every rank whose site changes between
    /// the current assignment and `new_hosts`, without journaling (the
    /// rebase clears the undo journal anyway).  Must run *before* the new
    /// hosts are adopted, while the old assignment is still readable.
    fn resync_ring_rows(&mut self, new_hosts: &[HostId]) {
        if self.ring_tables.is_empty() {
            return;
        }
        let mut tables = std::mem::take(&mut self.ring_tables);
        let n = self.hosts.len();
        let s_count = self.site_count;
        for r in 0..n {
            let (old_h, new_h) = (self.hosts[r], new_hosts[r]);
            if self.host_site[old_h.0] == self.host_site[new_h.0] {
                continue;
            }
            for (table, key) in tables.iter_mut().zip(&self.ring_table_keys) {
                let RingTable::PerSrc { tsite, .. } = table else {
                    continue;
                };
                let b = key.get(n, r, 0);
                self.fill_site_row(&mut tsite[r * s_count..][..s_count], new_h, b);
            }
        }
        self.ring_tables = tables;
    }

    /// Brings the per-assignment ring set-up up to date: each rank's host
    /// and site, the co-located pairs by ring step, and every `Uniform`
    /// table's per-rank row expansion.  All of it depends on the host
    /// assignment alone, so one move's ring segments — IS runs two per
    /// iteration — share a single set-up; `apply`, `undo` and `rebuild`
    /// (hence `rebase`) invalidate it.
    fn ensure_ring_setup(&mut self) {
        if self.ring_setup_valid {
            return;
        }
        let n = self.hosts.len();
        for (r, &h) in self.hosts.iter().enumerate() {
            self.host_of[r] = h.0 as u32;
            self.site_of[r] = self.host_site[h.0];
        }
        // Same-host (src, dst) pairs are rare — at most cores per host — so
        // the hot loop costs every receive through the site row
        // unconditionally and these pairs are patched afterwards, keyed by
        // their ring-step distance.  Only table rings read them (the
        // `PerPair` fallback compares hosts per receive).
        self.colo.clear();
        if !self.ring_tables.is_empty() {
            for (src, &h) in self.hosts.iter().enumerate() {
                for &d in &self.ranks_on_host[h.0] {
                    if d as usize != src {
                        let step = (d as usize + n - src) % n;
                        self.colo.push((step as u32, d, src as u32));
                    }
                }
            }
            self.colo.sort_unstable();
        }
        // A `Uniform` table's per-src rows, expanded from `site_of` once
        // per assignment (O(ranks·sites), dwarfed by the O(ranks²)
        // recurrence) so the inner loops keep the sequential row iteration
        // — a per-receive `site[ss·s + sd]` gather measured ~2× slower on
        // the ring-dominated IS schedule.
        let s_count = self.site_count;
        for table in &mut self.ring_tables {
            if let RingTable::Uniform { site, rows, .. } = table {
                for (row, &s) in rows.chunks_exact_mut(s_count).zip(&self.site_of) {
                    row.copy_from_slice(&site[s as usize * s_count..][..s_count]);
                }
            }
        }
        self.ring_setup_valid = true;
    }

    /// Runs one ring segment's full wavefront.  `wf_prev` holds the
    /// per-rank entry clocks in nanoseconds on entry and the exit clocks on
    /// return.  The per-step recurrence — `C[d] = max(P[d], P[src] + t) + o`
    /// with `src = d − step (mod n)` — is exactly [`ModelComm`]'s ring rule
    /// (stamp all sends against pre-step clocks, then take each receive's
    /// max) rewritten over u64 nanoseconds, which is exact because
    /// `SimTime` *is* a saturating u64 nanosecond counter.  The set-up the
    /// recurrence reads (sites, co-located pairs, `Uniform` row expansion)
    /// is shared by every wavefront of one host assignment
    /// ([`Self::ensure_ring_setup`]).
    fn ring_wavefront(&mut self, bytes: &RingBytes, table: Option<u32>) {
        self.ensure_ring_setup();
        let n = self.hosts.len();
        let mut prev = std::mem::take(&mut self.wf_prev);
        let mut cur = std::mem::take(&mut self.wf_cur);
        let o = self.overhead.as_nanos();
        match table {
            Some(ti) => {
                let t = &self.ring_tables[ti as usize];
                let s_count = self.site_count;
                let site_of = &self.site_of;
                let colo = &self.colo;
                let mut pi = 0usize;
                // Per-src site rows for the hot loop: a `PerSrc` table
                // holds them directly, a `Uniform` table in its expansion.
                let rows: &[u64] = match t {
                    RingTable::Uniform { rows, .. } => rows,
                    RingTable::PerSrc { tsite, .. } => tsite,
                };
                // The wrap in `src = d − step (mod n)` splits each step into
                // two linear runs, so the whole row is zipped slices: no
                // index arithmetic, no bounds checks, no per-cell branch.
                for step in 1..n {
                    // d in step..n pairs with src = d − step.
                    for ((((c, &pd), &ps), &sd), row) in cur[step..]
                        .iter_mut()
                        .zip(&prev[step..])
                        .zip(&prev[..n - step])
                        .zip(&site_of[step..])
                        .zip(rows.chunks_exact(s_count))
                    {
                        *c = pd
                            .max(ps.saturating_add(row[sd as usize]))
                            .saturating_add(o);
                    }
                    // d in 0..step wraps to src = d + n − step.
                    for ((((c, &pd), &ps), &sd), row) in cur[..step]
                        .iter_mut()
                        .zip(&prev[..step])
                        .zip(&prev[n - step..])
                        .zip(&site_of[..step])
                        .zip(rows[(n - step) * s_count..].chunks_exact(s_count))
                    {
                        *c = pd
                            .max(ps.saturating_add(row[sd as usize]))
                            .saturating_add(o);
                    }
                    while pi < colo.len() && colo[pi].0 as usize == step {
                        let (_, d, src) = colo[pi];
                        let ts = match t {
                            RingTable::Uniform { tsame, .. } => *tsame,
                            RingTable::PerSrc { tsame, .. } => tsame[src as usize],
                        };
                        cur[d as usize] = prev[d as usize]
                            .max(prev[src as usize].saturating_add(ts))
                            .saturating_add(o);
                        pi += 1;
                    }
                    std::mem::swap(&mut prev, &mut cur);
                }
            }
            None => {
                // PerPair fallback: per-receive byte counts, costed through
                // the (class, bytes) transfer memo.
                for step in 1..n {
                    for d in 0..n {
                        let src = if d >= step { d - step } else { d + n - step };
                        let b = bytes.get(n, src, d);
                        let (hs, hd) = (self.host_of[src], self.host_of[d]);
                        let tt = self
                            .transfer(HostId(hs as usize), HostId(hd as usize), b)
                            .as_nanos();
                        cur[d] = prev[d].max(prev[src].saturating_add(tt)).saturating_add(o);
                    }
                    std::mem::swap(&mut prev, &mut cur);
                }
            }
        }
        self.wf_prev = prev;
        self.wf_cur = cur;
    }

    /// Bytes of ring-cache state the evaluator holds: the pooled transfer
    /// tables, the per-assignment set-up (each `Uniform` table's per-rank
    /// row expansion, the per-rank host/site rows and the reserved
    /// co-location list) and the wavefront scratch rows — O(ranks · sites),
    /// versus the O(steps · ranks²) per-(step, rank) clock rows of the
    /// previous design (reported and bounded by `perf_report`'s
    /// `is_search` gate).
    pub fn ring_cache_bytes(&self) -> usize {
        let word = std::mem::size_of::<u64>();
        let tables: usize = self
            .ring_tables
            .iter()
            .map(|t| match t {
                RingTable::Uniform { site, rows, .. } => (site.len() + 1 + rows.len()) * word,
                RingTable::PerSrc { tsame, tsite } => (tsame.len() + tsite.len()) * word,
            })
            .sum();
        tables
            + (self.wf_prev.len() + self.wf_cur.len()) * word
            + (self.host_of.len() + self.site_of.len()) * std::mem::size_of::<u32>()
            + self.colo.capacity() * std::mem::size_of::<(u32, u32, u32)>()
    }

    /// Byte accounting of the `Uniform` specialisation: `(tables,
    /// uniform_bytes, per_src_equivalent_bytes)` — how many pooled transfer
    /// tables compressed to the move-invariant site×site form, the bytes
    /// they hold, and what the same tables would occupy in the journaled
    /// `PerSrc` layout (a `tsame` entry plus a site row per rank).
    pub fn uniform_ring_summary(&self) -> (usize, usize, usize) {
        let n = self.hosts.len();
        let word = std::mem::size_of::<u64>();
        let mut tables = 0usize;
        let mut bytes = 0usize;
        let mut per_src = 0usize;
        for t in &self.ring_tables {
            if let RingTable::Uniform { site, .. } = t {
                tables += 1;
                bytes += (site.len() + 1) * word;
                per_src += (n + n * self.site_count) * word;
            }
        }
        (tables, bytes, per_src)
    }
}

/// One pass over the final clocks: the largest (the makespan) and the sum
/// in seconds (the plateau-breaking regularizer of annealing drivers).
fn max_and_sum(clocks: &[SimTime]) -> (SimTime, f64) {
    let mut max = SimTime::ZERO;
    let mut sum = 0.0f64;
    for &c in clocks {
        max = max.max(c);
        sum += c.as_secs_f64();
    }
    (max, sum)
}

/// Removes one occurrence of `rank` from a host's resident list.
fn remove_rank(list: &mut Vec<u32>, rank: u32) {
    let i = list
        .iter()
        .position(|&r| r == rank)
        .expect("rank resident list out of sync");
    list.swap_remove(i);
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmpi_simgrid::topology::{NodeSpec, Topology, TopologyBuilder};
    use std::sync::Arc;

    fn topology() -> Arc<Topology> {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_site("local");
        let s1 = b.add_site("remote");
        b.add_cluster(s0, "l", "cpu", 4, NodeSpec::default());
        b.add_cluster(s1, "r", "cpu", 4, NodeSpec::default());
        b.set_rtt(s0, s1, SimDuration::from_millis(10));
        Arc::new(b.build())
    }

    fn model_for(placement: &Placement, t: &Arc<Topology>) -> ModelComm {
        ModelComm::new(
            placement,
            NetworkModel::new(t.clone()),
            ComputeModel::new(t.clone()),
        )
    }

    #[test]
    fn loggp_params_reflect_the_link() {
        let t = topology();
        let m = NetworkModel::new(t.clone());
        let l0 = t.host_by_name("l-0").unwrap().id;
        let r0 = t.host_by_name("r-0").unwrap().id;
        let local = LogGpParams::between(&m, l0, l0);
        let wan = LogGpParams::between(&m, l0, r0);
        assert_eq!(wan.latency, SimDuration::from_millis(5));
        assert!(local.latency < wan.latency);
        assert_eq!(wan.overhead, m.params().per_message_overhead);
        assert_eq!(wan.gap, wan.overhead);
        // 1 Gbps NIC bottleneck with 1.05 framing: ~8.4 ns per byte.
        assert!((wan.secs_per_byte - 8.4e-9).abs() < 0.1e-9);
        // Loopback is modelled faster than the NIC.
        assert!(local.secs_per_byte < wan.secs_per_byte);
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let t = topology();
        let p = Placement::co_located(1, t.hosts()[0].id);
        let mut m = model_for(&p, &t);
        m.bcast(0, 1 << 20);
        m.reduce(0, 1 << 20);
        m.allreduce(1 << 20);
        m.alltoall(1 << 20);
        assert_eq!(m.makespan(), SimDuration::ZERO);
    }

    #[test]
    fn bcast_cost_grows_logarithmically() {
        let t = topology();
        let hosts: Vec<_> = t.hosts().iter().map(|h| h.id).take(4).collect();
        // 2 ranks: one message; 4 ranks: two latency steps on the critical
        // path (binomial tree), not three.
        let mut two = model_for(&Placement::one_per_host(&hosts[..2]), &t);
        two.bcast(0, 64);
        let mut four = model_for(&Placement::one_per_host(&hosts), &t);
        four.bcast(0, 64);
        let t2 = two.makespan();
        let t4 = four.makespan();
        assert!(t4 > t2);
        assert!(
            t4 < t2 * 3,
            "4-rank binomial bcast {t4} must cost ~2 latency steps, not 3 ({t2} each)"
        );
        assert_eq!(four.stats().messages_sent, 3);
    }

    #[test]
    fn cross_site_collectives_cost_more() {
        let t = topology();
        let local: Vec<_> = t.hosts().iter().take(4).map(|h| h.id).collect();
        let mixed: Vec<_> = t.hosts().iter().skip(2).take(4).map(|h| h.id).collect();
        let mut a = model_for(&Placement::one_per_host(&local), &t);
        a.allreduce(1024);
        let mut b = model_for(&Placement::one_per_host(&mixed), &t);
        b.allreduce(1024);
        assert!(b.makespan() > a.makespan() * 10);
    }

    #[test]
    fn compute_respects_residents() {
        let t = topology();
        let host = t.hosts()[0].id;
        let spread: Vec<_> = t.hosts().iter().take(4).map(|h| h.id).collect();
        let mut packed = model_for(&Placement::co_located(4, host), &t);
        packed.compute(MemoryIntensity::MEMORY_BOUND, |_| 1e9);
        let mut spread_m = model_for(&Placement::one_per_host(&spread), &t);
        spread_m.compute(MemoryIntensity::MEMORY_BOUND, |_| 1e9);
        assert!(packed.makespan() > spread_m.makespan());
        assert_eq!(packed.stats().compute_ops, 4e9);
    }

    #[test]
    fn alltoall_counts_ring_messages() {
        let t = topology();
        let hosts: Vec<_> = t.hosts().iter().take(4).map(|h| h.id).collect();
        let mut m = model_for(&Placement::one_per_host(&hosts), &t);
        m.alltoall(256);
        // n(n-1) messages of 256 bytes.
        assert_eq!(m.stats().messages_sent, 12);
        assert_eq!(m.stats().bytes_sent, 12 * 256);
        assert!(m.makespan() > SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "unreplicated")]
    fn replicated_placement_is_rejected() {
        let t = topology();
        let hosts: Vec<_> = t.hosts().iter().take(4).map(|h| h.id).collect();
        let p = Placement::replicated_round_robin(2, 2, &hosts);
        model_for(&p, &t);
    }

    /// A small mixed program exercised by the schedule/evaluator tests.
    fn record_program<P: CollectiveProgram>(p: &mut P) {
        p.compute(MemoryIntensity::MEMORY_BOUND, |r| 1e8 * (r as f64 + 1.0));
        p.allreduce(64);
        p.alltoall(128);
        p.alltoallv(|src, _| src as u64 * 16);
        p.allgather(|r| (r % 3) as u64 * 8 + 8);
        p.barrier();
    }

    fn evaluator_for(hosts: Vec<HostId>, t: &Arc<Topology>) -> PlacementCost {
        let mut b = ScheduleBuilder::new(hosts.len() as u32);
        record_program(&mut b);
        let schedule = Arc::new(b.finish());
        let capacity = t.hosts().iter().map(|h| h.cores as u32).collect();
        PlacementCost::new(
            schedule,
            hosts,
            capacity,
            NetworkModel::new(t.clone()),
            ComputeModel::new(t.clone()),
        )
    }

    #[test]
    fn compiled_schedule_drives_a_model_comm_identically() {
        let t = topology();
        let hosts: Vec<_> = t.hosts().iter().take(6).map(|h| h.id).collect();
        let placement = Placement::one_per_host(&hosts);
        let mut direct = model_for(&placement, &t);
        record_program(&mut direct);

        let mut b = ScheduleBuilder::new(6);
        record_program(&mut b);
        let schedule = b.finish();
        let mut driven = model_for(&placement, &t);
        schedule.drive(&mut driven);

        assert_eq!(direct.clocks(), driven.clocks());
        assert_eq!(direct.stats().messages_sent, driven.stats().messages_sent);
    }

    #[test]
    fn placement_cost_matches_the_oracle_at_rest_and_after_moves() {
        let t = topology();
        let hosts: Vec<_> = t.hosts().iter().take(6).map(|h| h.id).collect();
        let mut cost = evaluator_for(hosts, &t);
        assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);

        // A cross-site swap changes the picture; delta == oracle.
        let before = cost.cost();
        let after = cost.apply(Move::Swap { a: 0, b: 5 }).unwrap();
        cost.commit();
        assert_ne!(before, after);
        assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
        assert_eq!(cost.cost(), cost.oracle_cost());

        // Migrate onto an occupied-but-not-full host (co-location).
        let dst = cost.hosts()[1];
        let c = cost.apply(Move::Migrate { rank: 2, to: dst }).unwrap();
        cost.commit();
        assert_eq!(c, cost.oracle_cost());
        assert_eq!(cost.residents_on(dst), 2);
    }

    #[test]
    fn undo_restores_the_exact_pre_move_state() {
        let t = topology();
        let hosts: Vec<_> = t.hosts().iter().take(6).map(|h| h.id).collect();
        let mut cost = evaluator_for(hosts.clone(), &t);
        let before_cost = cost.cost();
        let before_clocks = cost.clocks().to_vec();

        cost.apply(Move::Swap { a: 1, b: 4 }).unwrap();
        cost.undo();
        assert_eq!(cost.cost(), before_cost);
        assert_eq!(cost.clocks(), &before_clocks[..]);
        assert_eq!(cost.hosts(), &hosts[..]);

        // Undo of a migrate restores the resident counts too.
        let dst = hosts[0];
        cost.apply(Move::Migrate { rank: 3, to: dst }).unwrap();
        cost.undo();
        assert_eq!(cost.residents_on(dst), 1);
        assert_eq!(cost.hosts(), &hosts[..]);
        assert_eq!(cost.clocks(), &before_clocks[..]);
    }

    #[test]
    fn capacity_violating_migrate_is_rejected_without_mutation() {
        let t = topology();
        // Fill host 0 (2 cores) completely, rank 2 lives elsewhere.
        let h0 = t.hosts()[0].id;
        let h5 = t.hosts()[5].id;
        let cap0 = t.host(h0).cores as u32;
        let mut hosts = vec![h0; cap0 as usize];
        hosts.push(h5);
        let full_rank = cap0;
        let mut cost = evaluator_for(hosts.clone(), &t);
        let before_cost = cost.cost();
        let before_clocks = cost.clocks().to_vec();
        let err = cost
            .apply(Move::Migrate {
                rank: full_rank,
                to: h0,
            })
            .unwrap_err();
        assert_eq!(
            err,
            MoveError::CapacityExceeded {
                host: h0,
                capacity: cap0
            }
        );
        // Nothing moved, nothing journaled: the next apply is legal and the
        // state is exactly the pre-error one.
        assert_eq!(cost.hosts(), &hosts[..]);
        assert_eq!(cost.cost(), before_cost);
        assert_eq!(cost.clocks(), &before_clocks[..]);
        let after = cost.apply(Move::Swap { a: 0, b: full_rank }).unwrap();
        cost.commit();
        assert_eq!(after, cost.oracle_cost());
    }

    #[test]
    fn noop_moves_cost_nothing_and_commit_cleanly() {
        let t = topology();
        let hosts: Vec<_> = t.hosts().iter().take(4).map(|h| h.id).collect();
        let mut cost = evaluator_for(hosts.clone(), &t);
        let before = cost.cost();
        let same = cost.apply(Move::Swap { a: 2, b: 2 }).unwrap();
        assert_eq!(same, before);
        assert_eq!(cost.last_delta_ops(), 0);
        cost.undo();
        let same = cost
            .apply(Move::Migrate {
                rank: 1,
                to: hosts[1],
            })
            .unwrap();
        assert_eq!(same, before);
        cost.commit();
        assert_eq!(cost.hosts(), &hosts[..]);
    }

    #[test]
    fn transpose_alltoallv_compresses_despite_the_diagonal() {
        // FT-shaped: 0 bytes to self, a constant block everywhere else.
        // The diagonal is never costed (ring steps run 1..n), so this must
        // compress to Uniform — and cost exactly what the direct model run
        // charges.
        let mut b = ScheduleBuilder::new(6);
        b.alltoallv(|src, dst| if src == dst { 0 } else { 4096 });
        b.alltoallv(|src, dst| if src == dst { 0 } else { (src as u64 + 1) * 64 });
        b.alltoallv(|src, dst| (src as u64 * 7 + dst as u64) % 13 * 8);
        let schedule = b.finish();
        let forms: Vec<_> = schedule
            .segments
            .iter()
            .filter_map(|s| match s {
                Segment::Ring { bytes } => Some(bytes),
                _ => None,
            })
            .collect();
        assert_eq!(forms.len(), 3);
        assert!(matches!(forms[0], RingBytes::Uniform(4096)));
        assert!(matches!(forms[1], RingBytes::PerSrc(_)));
        assert!(matches!(forms[2], RingBytes::PerPair(_)));

        let t = topology();
        let hosts: Vec<_> = t.hosts().iter().take(6).map(|h| h.id).collect();
        let placement = Placement::one_per_host(&hosts);
        let mut direct = model_for(&placement, &t);
        direct.alltoallv(|src, dst| if src == dst { 0 } else { 4096 });
        direct.alltoallv(|src, dst| if src == dst { 0 } else { (src as u64 + 1) * 64 });
        direct.alltoallv(|src, dst| (src as u64 * 7 + dst as u64) % 13 * 8);
        let mut driven = model_for(&placement, &t);
        schedule.drive(&mut driven);
        assert_eq!(direct.clocks(), driven.clocks());
    }

    #[test]
    fn ring_tables_pool_across_identical_segments() {
        // Ten iterations of the same uniform ring share one pooled table:
        // the evaluator's ring state must cost the same as a single ring's.
        let t = topology();
        let hosts: Vec<_> = t.hosts().iter().map(|h| h.id).collect();
        let capacity: Vec<u32> = t.hosts().iter().map(|h| h.cores as u32).collect();
        let build = |rings: usize| {
            let mut b = ScheduleBuilder::new(hosts.len() as u32);
            for _ in 0..rings {
                b.alltoall(512);
            }
            PlacementCost::new(
                Arc::new(b.finish()),
                hosts.clone(),
                capacity.clone(),
                NetworkModel::new(t.clone()),
                ComputeModel::new(t.clone()),
            )
        };
        let one = build(1);
        let ten = build(10);
        assert_eq!(one.ring_cache_bytes(), ten.ring_cache_bytes());
        // O(ranks · sites) state: 8 ranks on a 2-site grid is well under a
        // kilobyte of table plus the shared wavefront scratch.
        assert!(ten.ring_cache_bytes() < 1024);

        // Moves on the pooled schedule still match the oracle.
        let mut ten = ten;
        ten.apply(Move::Swap { a: 0, b: 7 }).unwrap();
        ten.commit();
        assert_eq!(ten.clocks(), &ten.oracle_clocks()[..]);
    }

    #[test]
    fn delta_visits_far_fewer_ops_than_the_full_schedule() {
        let t = topology();
        let hosts: Vec<_> = t.hosts().iter().map(|h| h.id).collect();
        // EP-shaped program: one compute phase and two allreduces.
        let n = hosts.len() as u32;
        let mut b = ScheduleBuilder::new(n);
        b.compute(MemoryIntensity::CPU_BOUND, |_| 1e9);
        b.allreduce(16);
        b.allreduce(96);
        let schedule = Arc::new(b.finish());
        let full_ops = schedule.op_count();
        let capacity = t.hosts().iter().map(|h| h.cores as u32).collect();
        let mut cost = PlacementCost::new(
            schedule,
            hosts,
            capacity,
            NetworkModel::new(t.clone()),
            ComputeModel::new(t.clone()),
        );
        cost.apply(Move::Swap { a: 0, b: 7 }).unwrap();
        cost.commit();
        assert_eq!(cost.cost(), cost.oracle_cost());
        assert!(
            cost.last_delta_ops() < full_ops,
            "delta visited {} ops of a {}-op schedule",
            cost.last_delta_ops(),
            full_ops
        );
    }
}
