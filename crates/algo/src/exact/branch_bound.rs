//! Branch-and-bound exact solver for the NP-hard bi-criteria problem on
//! Fully Heterogeneous platforms (Theorem 7), parallelized across cores
//! with a shared incumbent.
//!
//! The brute-force oracle ([`crate::exact::exhaustive`]) evaluates every
//! `(partition, allocation)` pair; this solver explores the same tree
//! depth-first but prunes with two sound bounds. At a node, `free` is the
//! set of processors no interval uses yet:
//!
//! * **latency bound** — the partial latency, plus the cheapest possible
//!   close of the pending interval, plus the cheapest possible rest:
//!   * eq. (2) takes the max over replicas, so the pending interval costs
//!     at least its work on its **slowest** replica; while stages remain,
//!     each replica must also send `δ` to at least one free processor,
//!     which costs at least its transfer over its best link into `free`;
//!   * the remaining stages run at best on the fastest **free**
//!     processor, and the final interval pays at least the cheapest
//!     `P_out` transfer (before the first interval opens, the cheapest
//!     `P_in` transfer stands in for the pending term);
//!
//!   no completion can beat the sum, which is deflated by a few ulps
//!   before every comparison: it adds its terms in a different order
//!   than a leaf does, so the rounded bound could otherwise land an ulp
//!   above the very leaf it bounds;
//! * **failure bound** — the remaining stages must be replicated on free
//!   processors, so the success probability is at most the mapped
//!   prefix's times `1 − Π_{u∈free} fp_u`.
//!
//! Children are cheap: the failure cost `−ln(1 − Π fp)`, the fastest speed
//! and the summed `P_in` transfer of every replica set are looked up in
//! per-mask tables, built once per [`BranchBound`] and shared by every
//! run (each ε-step of a front sweep) and every worker. Each entry replays
//! the ascending-processor loop it replaces operation for operation, and
//! tighter bounds only skip subtrees that cannot hold the canonical
//! winner (below), so answers are bit-identical to the untabulated,
//! looser search.
//!
//! # Cooperative parallel search
//!
//! The assignment subtree is split at a configurable frontier depth into
//! **work units** (first-interval choices by default); `N` workers claim
//! units off a shared atomic counter — an idle worker simply claims (and
//! thereby steals) whatever unit is next, so stragglers never serialize
//! the tail. Workers share the incumbent **value** through one atomic
//! (f64 bits, CAS-published only when strictly better), so one worker's
//! bound prunes every other worker's subtree.
//!
//! # Determinism
//!
//! Parallel and sequential runs return **byte-identical** answers. The
//! canonical winner is the minimum over feasible leaves of the key
//! `(objective value, secondary criterion, unit index, DFS position)`:
//!
//! * the shared bound prunes only *strictly worse* nodes, so the ancestors
//!   of the winning leaf (whose bounds never exceed the optimal value) are
//!   never pruned by another worker's publication, regardless of timing;
//! * ties *within* one unit are pruned against the unit-local best only —
//!   a deterministic function of that unit's own DFS — keeping the old
//!   sequential pruning strength without cross-worker races;
//! * worker-local bests merge by the canonical key, not completion order.
//!
//! Heuristic seeds only initialize the shared bound and are never returned
//! from a `Complete` search (the seed's own leaf sits in the tree and its
//! ancestors are never pruned), so seeding provably cannot change answers.

use crate::heuristics::Portfolio;
use crate::par::resolve_threads;
use crate::solution::{BiSolution, Budgeted, Objective};
use rpwf_core::budget::{Budget, BudgetPoller};
use rpwf_core::eval::EvalContext;
use rpwf_core::mapping::{Interval, IntervalMapping};
use rpwf_core::num::LogProb;
use rpwf_core::platform::{Platform, ProcId, Vertex};
use rpwf_core::stage::Pipeline;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// State-space cap: the per-mask tables hold `2^m` entries each.
const MAX_PROCS: usize = 16;

/// Ceiling on materialized work units when splitting deeper than one
/// interval; generation stops refining once this many units exist (the
/// remaining frontier states become units at their current depth).
const MAX_UNITS: usize = 1 << 16;

/// Branch-and-bound solver handle.
#[derive(Clone, Debug)]
pub struct BranchBound<'a> {
    pipeline: &'a Pipeline,
    platform: &'a Platform,
    /// Skip seeding the incumbent from the heuristics (for benchmarking the
    /// raw search).
    pub seed_with_heuristics: bool,
    /// Worker threads (0 = one per available core, 1 = sequential).
    threads: usize,
    /// Intervals fixed per work unit (frontier split depth).
    split_depth: usize,
    /// Per-mask tables, built by the first run and reused by every later
    /// one.
    tables: OnceLock<MaskTables>,
}

/// Per-replica-set tables indexed by processor mask (bit `u` = `P_u`).
/// Entry `mask` extends the entry without its highest bit by that
/// processor's term, which is exactly the ascending-bit loop each table
/// replaces, so every lookup is bit-identical to the loop.
#[derive(Clone, Debug)]
struct MaskTables {
    /// `−ln(1 − Π_{u∈mask} fp_u)`: what an interval replicated on `mask`
    /// adds to the accumulated `−ln(success)`.
    fp_cost: Vec<f64>,
    /// Fastest speed in `mask` (`0` for the empty mask).
    max_speed: Vec<f64>,
    /// `Σ_{u∈mask}` of the `P_in → P_u` input transfers: the latency of
    /// opening the first interval on `mask`.
    input_comm: Vec<f64>,
}

impl MaskTables {
    fn new(pipeline: &Pipeline, platform: &Platform) -> Self {
        let size = 1usize << platform.n_procs();
        let mut all_fail = vec![LogProb::ONE; size];
        let mut t = MaskTables {
            fp_cost: vec![0.0; size],
            max_speed: vec![0.0; size],
            input_comm: vec![0.0; size],
        };
        for mask in 1..size {
            let top = mask.ilog2() as usize;
            let rest = mask & !(1 << top);
            let u = ProcId::new(top);
            all_fail[mask] = all_fail[rest] * LogProb::from_prob(platform.failure_prob(u));
            t.fp_cost[mask] = -all_fail[mask].one_minus().ln();
            t.max_speed[mask] = t.max_speed[rest].max(platform.speed(u));
            t.input_comm[mask] = t.input_comm[rest]
                + platform.comm_time(Vertex::In, Vertex::Proc(u), pipeline.input_size());
        }
        t
    }
}

/// Per-worker search telemetry from one parallel (or sequential) run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStat {
    /// Worker index within the run's pool.
    pub worker: usize,
    /// Wall-clock busy time of this worker, microseconds.
    pub elapsed_us: u64,
    /// DFS nodes expanded by this worker.
    pub nodes: u64,
    /// Work units this worker claimed and searched.
    pub units_executed: u64,
    /// Claimed units whose round-robin home was another worker.
    pub units_stolen: u64,
    /// Strictly-better incumbent values this worker published globally.
    pub improvements: u64,
}

/// Telemetry for one branch-and-bound run (or an aggregate of runs, e.g.
/// every ε-step of a front sweep).
#[derive(Clone, Debug, Default)]
pub struct SearchStats {
    /// Resolved worker-pool width the search ran with.
    pub threads: usize,
    /// Per-worker counters, indexed by worker.
    pub workers: Vec<WorkerStat>,
}

impl SearchStats {
    /// Total DFS nodes expanded across workers.
    #[must_use]
    pub fn nodes(&self) -> u64 {
        self.workers.iter().map(|w| w.nodes).sum()
    }

    /// Total work units executed across workers.
    #[must_use]
    pub fn units_executed(&self) -> u64 {
        self.workers.iter().map(|w| w.units_executed).sum()
    }

    /// Total work units executed by a non-home worker.
    #[must_use]
    pub fn units_stolen(&self) -> u64 {
        self.workers.iter().map(|w| w.units_stolen).sum()
    }

    /// Total strictly-better incumbent publications.
    #[must_use]
    pub fn improvements(&self) -> u64 {
        self.workers.iter().map(|w| w.improvements).sum()
    }

    /// Folds another run's counters into this one (same-index workers are
    /// summed), e.g. to aggregate the steps of a front sweep.
    pub fn absorb(&mut self, other: &SearchStats) {
        self.threads = self.threads.max(other.threads);
        for w in &other.workers {
            match self.workers.iter_mut().find(|x| x.worker == w.worker) {
                Some(x) => {
                    x.elapsed_us += w.elapsed_us;
                    x.nodes += w.nodes;
                    x.units_executed += w.units_executed;
                    x.units_stolen += w.units_stolen;
                    x.improvements += w.improvements;
                }
                None => self.workers.push(*w),
            }
        }
        self.workers.sort_by_key(|w| w.worker);
    }
}

/// Immutable per-run context shared (by reference) across workers.
struct TreeCtx<'a> {
    pipeline: &'a Pipeline,
    platform: &'a Platform,
    /// Cached bound ingredients: the pipeline prefix sums (suffix work in
    /// O(1)) and the cheapest I/O links.
    ctx: EvalContext<'a>,
    tables: &'a MaskTables,
    objective: Objective,
    n: usize,
    m: usize,
    full: u32,
    /// `1 − (n + 8)·ε`: scales the latency bound below every leaf it
    /// bounds. The bound sums at most 4 rounded terms and a leaf at most
    /// `n + 1`; reassociating them moves a sum of nonnegative terms by
    /// under `(n + 6)·ε/2` relative, so the deflated bound stays sound.
    lat_deflate: f64,
}

/// Deflation of the free-set failure cost in the failure bound: the table
/// entry of a replica subset can, across `LogProb::one_minus`'s two
/// formulas, round an ulp below that of its superset.
const FP_DEFLATE: f64 = 1.0 - 4.0 * f64::EPSILON;

/// Mutable cross-worker state: the published incumbent value and the work
/// claim counter.
struct SharedState {
    /// f64 bits of the best *published* objective value (`+inf` when none).
    /// Values are nonnegative, so numeric order matches bit order; we still
    /// compare as floats for clarity.
    bound_bits: AtomicU64,
    /// Next unclaimed work-unit index; claiming is the steal.
    next_unit: AtomicUsize,
}

impl SharedState {
    fn new() -> Self {
        SharedState {
            bound_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            next_unit: AtomicUsize::new(0),
        }
    }

    fn bound(&self) -> f64 {
        f64::from_bits(self.bound_bits.load(Ordering::Relaxed))
    }

    /// Publishes `value` if strictly better than the current bound;
    /// returns whether this call improved it.
    fn publish(&self, value: f64) -> bool {
        let mut cur = self.bound_bits.load(Ordering::Relaxed);
        loop {
            if value >= f64::from_bits(cur) {
                return false;
            }
            match self.bound_bits.compare_exchange_weak(
                cur,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }
}

/// One frontier state: the subtree rooted at a partial assignment.
#[derive(Clone, Debug)]
struct Unit {
    stack: Vec<(usize, u32)>,
    used: u32,
    next_stage: usize,
    lat: f64,
    fp_cost: f64,
}

/// Pending (not yet closed) interval encoded by a decision stack.
fn pending_of(stack: &[(usize, u32)]) -> Option<(usize, usize, u32)> {
    stack.last().map(|&(end, mask)| {
        let start = if stack.len() >= 2 {
            stack[stack.len() - 2].0 + 1
        } else {
            0
        };
        (start, end, mask)
    })
}

impl<'a> TreeCtx<'a> {
    fn new(
        pipeline: &'a Pipeline,
        platform: &'a Platform,
        tables: &'a MaskTables,
        objective: Objective,
    ) -> Self {
        let (n, m) = (pipeline.n_stages(), platform.n_procs());
        TreeCtx {
            pipeline,
            platform,
            ctx: EvalContext::new(pipeline, platform),
            tables,
            objective,
            n,
            m,
            full: (1u32 << m) - 1,
            lat_deflate: 1.0 - (n as f64 + 8.0) * f64::EPSILON,
        }
    }

    /// Latency contribution of closing interval `(start..=end, alloc_prev)`
    /// toward the next replica mask (`None` = toward `P_out`).
    fn close_cost(&self, start: usize, end: usize, prev_mask: u32, next_mask: Option<u32>) -> f64 {
        let work = self.pipeline.work_sum(start, end);
        let out_size = self.pipeline.delta(end + 1);
        let mut worst = f64::NEG_INFINITY;
        let mut mm = prev_mask;
        while mm != 0 {
            let u = ProcId::new(mm.trailing_zeros() as usize);
            mm &= mm - 1;
            let mut cost = work / self.platform.speed(u);
            match next_mask {
                Some(next) => {
                    let mut vv = next;
                    while vv != 0 {
                        let v = ProcId::new(vv.trailing_zeros() as usize);
                        vv &= vv - 1;
                        cost += self
                            .platform
                            .comm_time(Vertex::Proc(u), Vertex::Proc(v), out_size);
                    }
                }
                None => {
                    cost += self
                        .platform
                        .comm_time(Vertex::Proc(u), Vertex::Out, out_size);
                }
            }
            if cost > worst {
                worst = cost;
            }
        }
        worst
    }

    /// Lower bound on closing the pending interval `(start..=end, mask)`
    /// toward a next interval on a subset of `free`: eq. (2) takes the max
    /// over replicas, and each replica runs the whole interval and then
    /// sends `δ_{end+1}` at least once, over its best link into `free`.
    /// Each replica's term is at most its [`Self::close_cost`] term bit
    /// for bit: `size / max bandwidth` is the min of `size / bandwidth`.
    fn pending_floor(&self, start: usize, end: usize, mask: u32, free: u32) -> f64 {
        let work = self.pipeline.work_sum(start, end);
        let size = self.pipeline.delta(end + 1);
        let mut worst = 0.0f64;
        let mut mm = mask;
        while mm != 0 {
            let u = ProcId::new(mm.trailing_zeros() as usize);
            mm &= mm - 1;
            let mut best_bw = 0.0f64;
            let mut vv = free;
            while vv != 0 {
                let v = ProcId::new(vv.trailing_zeros() as usize);
                vv &= vv - 1;
                best_bw = best_bw.max(self.platform.bandwidth(Vertex::Proc(u), Vertex::Proc(v)));
            }
            let send = if size == 0.0 { 0.0 } else { size / best_bw };
            worst = worst.max(work / self.platform.speed(u) + send);
        }
        worst
    }

    /// Partial latency after opening a new interval on `sub`: close the
    /// pending interval toward it, or (first interval, from a zero partial
    /// latency) pay the serialized input transfers from `P_in`.
    fn open_lat(&self, pending: Option<(usize, usize, u32)>, lat_partial: f64, sub: u32) -> f64 {
        match pending {
            Some((s, e, mask)) => lat_partial + self.close_cost(s, e, mask, Some(sub)),
            None => lat_partial + self.tables.input_comm[sub as usize],
        }
    }

    /// What closing the pending interval `(start..=end, mask)` toward the
    /// next interval adds to the partial latency, for every submask of
    /// `free`: `out[r]` is for the `r`-th submask in ascending order (bit
    /// `j` of `r` = the `j`-th processor of `free`), bit-identical to
    /// [`Self::close_cost`]. Per replica, the serialized sends to a
    /// submask extend those to the submask without its highest
    /// processor, which is `close_cost`'s ascending loop; `row` is
    /// scratch.
    fn open_costs(
        &self,
        (start, end, mask): (usize, usize, u32),
        free: u32,
        out: &mut Vec<f64>,
        row: &mut Vec<f64>,
    ) {
        let len = 1usize << free.count_ones();
        out.clear();
        out.resize(len, f64::NEG_INFINITY);
        row.resize(len, 0.0);
        let work = self.pipeline.work_sum(start, end);
        let size = self.pipeline.delta(end + 1);
        let mut mm = mask;
        while mm != 0 {
            let p = ProcId::new(mm.trailing_zeros() as usize);
            mm &= mm - 1;
            let u = Vertex::Proc(p);
            let mut link = [0.0f64; MAX_PROCS];
            let mut vv = free;
            for l in link.iter_mut().take(free.count_ones() as usize) {
                let v = Vertex::Proc(ProcId::new(vv.trailing_zeros() as usize));
                vv &= vv - 1;
                *l = self.platform.comm_time(u, v, size);
            }
            row[0] = work / self.platform.speed(p);
            for r in 1..len {
                let j = r.ilog2() as usize;
                row[r] = row[r & !(1 << j)] + link[j];
                if row[r] > out[r] {
                    out[r] = row[r];
                }
            }
        }
    }

    /// Accumulated `-ln(success)` after adding an interval replicated on
    /// `sub`.
    fn interval_fp_cost(&self, fp_cost_partial: f64, sub: u32) -> f64 {
        fp_cost_partial + self.tables.fp_cost[sub as usize]
    }

    /// Canonical `(objective value, secondary criterion)` key of a leaf.
    fn keys(&self, latency: f64, fp: f64) -> (f64, f64) {
        match self.objective {
            Objective::MinFpUnderLatency(_) => (fp, latency),
            Objective::MinLatencyUnderFp(_) => (latency, fp),
        }
    }

    /// Sound lower bounds at a node: `(value_lb, secondary_lb, infeasible)`
    /// where `infeasible` means no completion can satisfy the constraint.
    /// `lat_partial` excludes the pending interval's own term; `pending` is
    /// `(start, end, mask)` of the not-yet-closed interval; `free` is the
    /// set of processors no interval uses yet.
    fn node_bounds(
        &self,
        lat_partial: f64,
        fp_cost_partial: f64,
        pending: Option<(usize, usize, u32)>,
        next_stage: usize,
        free: u32,
    ) -> (f64, f64, bool) {
        let mut lb = lat_partial;
        let mut fp_cost = fp_cost_partial;
        if next_stage < self.n {
            if free == 0 {
                return (f64::INFINITY, f64::INFINITY, true); // no processors left
            }
            match pending {
                Some((s, e, mask)) => lb += self.pending_floor(s, e, mask, free),
                // No interval opened yet: the first interval will pay at
                // least one input transfer over the cheapest P_in link.
                None => lb += self.ctx.min_input_comm(),
            }
            // The remaining stages run at best on the fastest free
            // processor, the final interval pays at least the cheapest
            // P_out transfer, and the next interval's replicas all come
            // from `free`.
            lb += self.ctx.suffix_work(next_stage) / self.tables.max_speed[free as usize]
                + self.ctx.min_output_comm();
            fp_cost += self.tables.fp_cost[free as usize] * FP_DEFLATE;
        }
        let lb = lb * self.lat_deflate;
        let fp_lb = -(-fp_cost).exp_m1();
        match self.objective {
            Objective::MinFpUnderLatency(_) => {
                (fp_lb, lb, lb > self.objective.threshold_with_slack())
            }
            Objective::MinLatencyUnderFp(_) => {
                (lb, fp_lb, fp_lb > self.objective.threshold_with_slack())
            }
        }
    }
}

/// Work-unit enumeration: index-addressable frontier states in structural
/// DFS order, so claims by index preserve the canonical ordering.
enum UnitSource {
    /// Depth-1 split: unit `k` is the `k`-th `(first end, first mask)`
    /// root child; O(1) addressing, nothing materialized (important for
    /// large `m`, where there are `n·(2^m − 1)` units).
    Implicit { n: usize, full: u32 },
    /// Deeper splits materialize the frontier (capped at [`MAX_UNITS`]).
    Materialized(Vec<Unit>),
}

impl UnitSource {
    fn len(&self) -> usize {
        match self {
            UnitSource::Implicit { n, full } => n * (*full as usize),
            UnitSource::Materialized(units) => units.len(),
        }
    }

    fn get(&self, k: usize, t: &TreeCtx) -> Unit {
        match self {
            UnitSource::Implicit { full, .. } => {
                let fullc = *full as usize;
                let end = k / fullc;
                // Submask enumeration from the full free set walks
                // full, full−1, …, 1, so rank r maps to mask full − r.
                let sub = full - (k % fullc) as u32;
                Unit {
                    stack: vec![(end, sub)],
                    used: sub,
                    next_stage: end + 1,
                    lat: t.open_lat(None, 0.0, sub),
                    fp_cost: t.interval_fp_cost(0.0, sub),
                }
            }
            UnitSource::Materialized(units) => units[k].clone(),
        }
    }
}

/// Generates the materialized frontier for `split_depth ≥ 2`.
struct UnitGen<'a> {
    t: &'a TreeCtx<'a>,
    stack: Vec<(usize, u32)>,
    out: Vec<Unit>,
}

impl UnitGen<'_> {
    fn rec(&mut self, depth_left: usize, next_stage: usize, used: u32, lat: f64, fp_cost: f64) {
        if depth_left == 0 || next_stage == self.t.n || self.out.len() >= MAX_UNITS {
            self.out.push(Unit {
                stack: self.stack.clone(),
                used,
                next_stage,
                lat,
                fp_cost,
            });
            return;
        }
        let free = self.t.full & !used;
        if free == 0 {
            return; // no processors left: the subtree holds no leaves
        }
        let pending = pending_of(&self.stack);
        for end in next_stage..self.t.n {
            let mut sub = free;
            while sub != 0 {
                let l = self.t.open_lat(pending, lat, sub);
                let f = self.t.interval_fp_cost(fp_cost, sub);
                self.stack.push((end, sub));
                self.rec(depth_left - 1, end + 1, used | sub, l, f);
                self.stack.pop();
                sub = (sub - 1) & free;
            }
        }
    }
}

/// A unit's best feasible leaf under the canonical key.
struct UnitBest {
    value: f64,
    secondary: f64,
    sol: BiSolution,
}

/// Per-worker DFS executor over claimed units.
struct Search<'a> {
    t: &'a TreeCtx<'a>,
    shared: &'a SharedState,
    /// Strided budget view; the stop flag is shared with every worker, so
    /// one worker's cutoff detection cancels the whole pool.
    poller: BudgetPoller,
    /// Best feasible leaf of the unit currently being searched. Ties are
    /// pruned only against this (never the shared bound), which keeps the
    /// per-unit winner independent of other workers' timing.
    unit_best: Option<UnitBest>,
    /// ε-sweep carry: best-latency leaf at or below this FP gate, kept as
    /// a *seed candidate* for the next sweep step (never an answer).
    carry_gate: Option<f64>,
    carry: Option<BiSolution>,
    /// Decision stack: per interval `(end stage, replica mask)`.
    stack: Vec<(usize, u32)>,
    /// Per-depth [`TreeCtx::open_costs`] tables, reused across nodes.
    open_bufs: Vec<Vec<f64>>,
    /// Scratch row for [`TreeCtx::open_costs`].
    row: Vec<f64>,
    nodes: u64,
    improvements: u64,
    /// Set once the budget expires; unwinds the whole DFS.
    aborted: bool,
}

impl Search<'_> {
    fn decode(&self) -> IntervalMapping {
        let mut intervals = Vec::with_capacity(self.stack.len());
        let mut alloc = Vec::with_capacity(self.stack.len());
        let mut start = 0usize;
        for &(end, mask) in &self.stack {
            intervals.push(Interval::new(start, end).expect("ordered"));
            let mut ids = Vec::new();
            let mut mm = mask;
            while mm != 0 {
                ids.push(ProcId::new(mm.trailing_zeros() as usize));
                mm &= mm - 1;
            }
            alloc.push(ids);
            start = end + 1;
        }
        IntervalMapping::new(intervals, alloc, self.t.n, self.t.m)
            .expect("search stack encodes a valid mapping")
    }

    /// Records a fully-assigned leaf: sweep carry, then the canonical
    /// unit-local incumbent (first-found wins exact ties), publishing
    /// strictly-better values to the shared bound.
    fn consider_leaf(&mut self, latency: f64, fp: f64) {
        if let Some(gate) = self.carry_gate {
            if fp <= gate {
                let better = match &self.carry {
                    None => true,
                    Some(c) => latency < c.latency || (latency == c.latency && fp < c.failure_prob),
                };
                if better {
                    self.carry = Some(BiSolution {
                        mapping: self.decode(),
                        latency,
                        failure_prob: fp,
                    });
                }
            }
        }
        if !self.t.objective.feasible(latency, fp) {
            return;
        }
        let (value, secondary) = self.t.keys(latency, fp);
        let better = match &self.unit_best {
            None => true,
            Some(b) => value < b.value || (value == b.value && secondary < b.secondary),
        };
        if !better {
            return;
        }
        self.unit_best = Some(UnitBest {
            value,
            secondary,
            sol: BiSolution {
                mapping: self.decode(),
                latency,
                failure_prob: fp,
            },
        });
        if self.shared.publish(value) {
            self.improvements += 1;
        }
    }

    /// Prune test. Soundness *and* determinism: the shared bound prunes
    /// only strictly-worse nodes (so the canonical winner's ancestors
    /// survive any publication timing); value ties are pruned against the
    /// unit-local best only.
    fn pruned(
        &self,
        lat_partial: f64,
        fp_cost_partial: f64,
        pending: Option<(usize, usize, u32)>,
        next_stage: usize,
        free: u32,
    ) -> bool {
        let (value_lb, sec_lb, infeasible) =
            self.t
                .node_bounds(lat_partial, fp_cost_partial, pending, next_stage, free);
        if infeasible {
            return true;
        }
        if value_lb > self.shared.bound() {
            return true;
        }
        if let Some(b) = &self.unit_best {
            if value_lb > b.value || (value_lb == b.value && sec_lb >= b.secondary) {
                return true;
            }
        }
        false
    }

    /// DFS over interval ends and allocation submasks.
    ///
    /// Invariant: `self.stack` holds all *closed and pending* intervals;
    /// the last stack entry is the pending interval whose outgoing cost is
    /// not yet included in `lat_partial`.
    fn dfs(&mut self, next_stage: usize, used: u32, lat_partial: f64, fp_cost_partial: f64) {
        self.nodes += 1;
        if self.poller.check(self.nodes) {
            self.aborted = true;
        }
        if self.aborted {
            return;
        }
        let free = self.t.full & !used;
        let pending = pending_of(&self.stack);

        // Every work unit opens at least one interval.
        let pending_iv = pending.expect("at least one interval");
        if next_stage == self.t.n {
            // Close the pending interval toward P_out.
            let (start, end, mask) = pending_iv;
            let latency = lat_partial + self.t.close_cost(start, end, mask, None);
            let fp = -(-fp_cost_partial).exp_m1();
            self.consider_leaf(latency, fp);
            return;
        }
        if self.pruned(lat_partial, fp_cost_partial, pending, next_stage, free) {
            return;
        }

        // Opening the next interval costs the same wherever it ends, so
        // tabulate it once per node rather than once per child.
        let depth = self.stack.len();
        let mut open = std::mem::take(&mut self.open_bufs[depth]);
        self.t
            .open_costs(pending_iv, free, &mut open, &mut self.row);
        for end in next_stage..self.t.n {
            // Enumerate non-empty submasks of the free set for the next
            // interval, descending, so `rank` counts down with them.
            let mut sub = free;
            let mut rank = open.len();
            while sub != 0 {
                rank -= 1;
                let lat = lat_partial + open[rank];
                let fp_cost = self.t.interval_fp_cost(fp_cost_partial, sub);

                self.stack.push((end, sub));
                self.dfs(end + 1, used | sub, lat, fp_cost);
                self.stack.pop();
                if self.aborted {
                    break;
                }

                sub = (sub - 1) & free;
            }
            if self.aborted {
                break;
            }
        }
        self.open_bufs[depth] = open;
    }
}

/// Everything one worker reports back for the deterministic merge.
struct WorkerOutcome {
    /// Canonical-best feasible leaf: `(value, secondary, unit, solution)`.
    best: Option<(f64, f64, usize, BiSolution)>,
    carry: Option<BiSolution>,
    stat: WorkerStat,
    aborted: bool,
}

/// `a` strictly precedes `b` under the canonical merge key.
fn lex_better(a: (f64, f64, usize), b: (f64, f64, usize)) -> bool {
    match a.0.total_cmp(&b.0) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => match a.1.total_cmp(&b.1) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => a.2 < b.2,
        },
    }
}

/// Shared-reference bundle driving one worker pool.
struct Driver<'a> {
    t: &'a TreeCtx<'a>,
    shared: &'a SharedState,
    units: &'a UnitSource,
    n_workers: usize,
    carry_gate: Option<f64>,
    poller: BudgetPoller,
}

impl Driver<'_> {
    fn run_worker(&self, worker: usize) -> WorkerOutcome {
        let start = Instant::now();
        let mut s = Search {
            t: self.t,
            shared: self.shared,
            poller: self.poller.clone(),
            unit_best: None,
            carry_gate: self.carry_gate,
            carry: None,
            stack: Vec::with_capacity(self.t.n),
            open_bufs: vec![Vec::new(); self.t.n + 1],
            row: Vec::new(),
            nodes: 0,
            improvements: 0,
            aborted: false,
        };
        let mut best: Option<(f64, f64, usize, BiSolution)> = None;
        let mut units_executed = 0u64;
        let mut units_stolen = 0u64;
        // Entry poll: an already-expired budget aborts before any claim.
        if s.poller.poll_now() {
            s.aborted = true;
        }
        while !s.aborted {
            let k = self.shared.next_unit.fetch_add(1, Ordering::Relaxed);
            if k >= self.units.len() {
                break;
            }
            if s.poller.is_stopped() {
                s.aborted = true;
                break;
            }
            let unit = self.units.get(k, self.t);
            units_executed += 1;
            if k % self.n_workers != worker {
                units_stolen += 1;
            }
            s.unit_best = None;
            s.stack.clear();
            s.stack.extend_from_slice(&unit.stack);
            s.dfs(unit.next_stage, unit.used, unit.lat, unit.fp_cost);
            // Merge the unit's (possibly partial, on abort) best by the
            // canonical key — unit index, not completion order.
            if let Some(ub) = s.unit_best.take() {
                let replace = match &best {
                    None => true,
                    Some((v, sec, uk, _)) => {
                        lex_better((ub.value, ub.secondary, k), (*v, *sec, *uk))
                    }
                };
                if replace {
                    best = Some((ub.value, ub.secondary, k, ub.sol));
                }
            }
        }
        WorkerOutcome {
            best,
            carry: s.carry,
            stat: WorkerStat {
                worker,
                elapsed_us: u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX),
                nodes: s.nodes,
                units_executed,
                units_stolen,
                improvements: s.improvements,
            },
            aborted: s.aborted,
        }
    }
}

/// Full result of one run: outcome, node count, telemetry, sweep carry.
pub(crate) struct RunOutput {
    pub(crate) outcome: Budgeted<Option<BiSolution>>,
    pub(crate) nodes: u64,
    pub(crate) stats: SearchStats,
    pub(crate) carry: Option<BiSolution>,
}

impl<'a> BranchBound<'a> {
    /// Creates a sequential solver (heuristic incumbent seeding enabled).
    #[must_use]
    pub fn new(pipeline: &'a Pipeline, platform: &'a Platform) -> Self {
        BranchBound {
            pipeline,
            platform,
            seed_with_heuristics: true,
            threads: 1,
            split_depth: 1,
            tables: OnceLock::new(),
        }
    }

    /// Disables heuristic incumbent seeding (raw search, for measuring the
    /// pruning contribution).
    #[must_use]
    pub fn without_heuristic_seed(mut self) -> Self {
        self.seed_with_heuristics = false;
        self
    }

    /// Sets the worker-pool width: 0 = one worker per available core,
    /// 1 = sequential (default), N = exactly N workers. Any width returns
    /// byte-identical answers.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets how many intervals each work unit fixes (frontier split
    /// depth); 1 (default) splits on the first `(end, mask)` choice.
    #[must_use]
    pub fn with_split_depth(mut self, depth: usize) -> Self {
        self.split_depth = depth.max(1);
        self
    }

    /// The resolved worker-pool width this solver will run with.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        resolve_threads(self.threads)
    }

    /// Runs the search under a budget. Internal seeding (when enabled)
    /// runs the heuristic portfolio *before* the budget is first polled,
    /// so direct callers with very tight deadlines should seed externally
    /// via [`Self::solve_with_budget_seeded`].
    fn run(&self, objective: Objective, budget: &Budget) -> RunOutput {
        let incumbent = if self.seed_with_heuristics {
            Portfolio::new(0xB0B).solve(self.pipeline, self.platform, objective)
        } else {
            None
        };
        self.run_seeded(objective, budget, incumbent, None)
    }

    fn run_seeded(
        &self,
        objective: Objective,
        budget: &Budget,
        incumbent: Option<BiSolution>,
        carry_gate: Option<f64>,
    ) -> RunOutput {
        let m = self.platform.n_procs();
        assert!(
            m <= MAX_PROCS,
            "branch and bound supports at most {MAX_PROCS} processors"
        );
        let tables = self
            .tables
            .get_or_init(|| MaskTables::new(self.pipeline, self.platform));
        let t = TreeCtx::new(self.pipeline, self.platform, tables, objective);
        let (n, full) = (t.n, t.full);
        // Seeds only ever tighten the shared bound; answers come from the
        // tree, so an (always feasible) seed provably cannot change them.
        let seed = incumbent.filter(|s| objective.feasible(s.latency, s.failure_prob));
        let shared = SharedState::new();
        if let Some(s) = &seed {
            let (value, _) = t.keys(s.latency, s.failure_prob);
            shared.publish(value);
        }
        let poller = BudgetPoller::new(budget.clone());

        // Root-level check: an infeasible or empty instance finishes
        // without enumerating the (possibly huge) unit space.
        let (_, _, root_infeasible) = t.node_bounds(0.0, 0.0, None, 0, full);
        if root_infeasible {
            return RunOutput {
                outcome: Budgeted::Complete(None),
                nodes: 1,
                stats: SearchStats {
                    threads: self.effective_threads(),
                    workers: Vec::new(),
                },
                carry: None,
            };
        }

        let units = if self.split_depth <= 1 {
            UnitSource::Implicit { n, full }
        } else {
            let mut gen = UnitGen {
                t: &t,
                stack: Vec::with_capacity(self.split_depth),
                out: Vec::new(),
            };
            gen.rec(self.split_depth, 0, 0, 0.0, 0.0);
            UnitSource::Materialized(gen.out)
        };
        let n_workers = self.effective_threads().clamp(1, units.len().max(1));
        let driver = Driver {
            t: &t,
            shared: &shared,
            units: &units,
            n_workers,
            carry_gate,
            poller: poller.clone(),
        };

        let outcomes: Vec<WorkerOutcome> = if n_workers == 1 {
            vec![driver.run_worker(0)]
        } else {
            let d = &driver;
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = (0..n_workers)
                    .map(|w| scope.spawn(move |_| d.run_worker(w)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("search worker panicked"))
                    .collect()
            })
            .expect("search scope panicked")
        };

        let aborted = outcomes.iter().any(|o| o.aborted) || poller.is_stopped();
        let mut best: Option<(f64, f64, usize, BiSolution)> = None;
        let mut carry: Option<BiSolution> = None;
        let mut stats = SearchStats {
            threads: n_workers,
            workers: Vec::with_capacity(outcomes.len()),
        };
        let mut nodes = 0u64;
        for o in outcomes {
            nodes += o.stat.nodes;
            stats.workers.push(o.stat);
            if let Some((v, sec, uk, sol)) = o.best {
                let replace = match &best {
                    None => true,
                    Some((bv, bs, bu, _)) => lex_better((v, sec, uk), (*bv, *bs, *bu)),
                };
                if replace {
                    best = Some((v, sec, uk, sol));
                }
            }
            if let Some(c) = o.carry {
                let replace = match &carry {
                    None => true,
                    Some(cur) => {
                        c.latency < cur.latency
                            || (c.latency == cur.latency && c.failure_prob < cur.failure_prob)
                    }
                };
                if replace {
                    carry = Some(c);
                }
            }
        }
        let tree_answer = best.map(|(_, _, _, sol)| sol);
        let answer = if aborted {
            // Cutoff: the best feasible incumbent in hand, seed included.
            match (tree_answer, seed) {
                (Some(tr), Some(sd)) => {
                    let tk = t.keys(tr.latency, tr.failure_prob);
                    let sk = t.keys(sd.latency, sd.failure_prob);
                    if lex_better((sk.0, sk.1, usize::MAX), (tk.0, tk.1, 0)) {
                        Some(sd)
                    } else {
                        Some(tr)
                    }
                }
                (tr, sd) => tr.or(sd),
            }
        } else {
            // Complete: the exhausted tree contains the seed's own leaf,
            // so the canonical answer already matches or beats any seed.
            tree_answer
        };
        RunOutput {
            outcome: if aborted {
                Budgeted::Cutoff(answer)
            } else {
                Budgeted::Complete(answer)
            },
            nodes,
            stats,
            carry,
        }
    }

    /// Like [`Self::solve_with_budget`] but seeded with an
    /// externally-computed incumbent (e.g. the portfolio answer already in
    /// hand) instead of running the internal heuristic seeding pass — the
    /// search starts polling the budget immediately.
    ///
    /// # Panics
    /// When the platform has more than 16 processors.
    #[must_use]
    pub fn solve_with_budget_seeded(
        &self,
        objective: Objective,
        budget: &Budget,
        incumbent: Option<BiSolution>,
    ) -> Budgeted<Option<BiSolution>> {
        self.run_seeded(objective, budget, incumbent, None).outcome
    }

    /// Like [`Self::solve_with_budget_seeded`], also returning per-worker
    /// search telemetry.
    ///
    /// # Panics
    /// When the platform has more than 16 processors.
    #[must_use]
    pub fn solve_with_budget_seeded_stats(
        &self,
        objective: Objective,
        budget: &Budget,
        incumbent: Option<BiSolution>,
    ) -> (Budgeted<Option<BiSolution>>, SearchStats) {
        let out = self.run_seeded(objective, budget, incumbent, None);
        (out.outcome, out.stats)
    }

    /// One ε-constraint sweep step: solve, and additionally collect the
    /// best-latency leaf whose FP is at or below `carry_gate` as a seed
    /// candidate for the next (tighter) step.
    pub(crate) fn solve_sweep_step(
        &self,
        objective: Objective,
        budget: &Budget,
        incumbent: Option<BiSolution>,
        carry_gate: Option<f64>,
    ) -> RunOutput {
        self.run_seeded(objective, budget, incumbent, carry_gate)
    }

    /// Solves the threshold problem exactly; `None` when infeasible.
    ///
    /// # Panics
    /// When the platform has more than 16 processors.
    #[must_use]
    pub fn solve(&self, objective: Objective) -> Option<BiSolution> {
        self.run(objective, &Budget::unlimited())
            .outcome
            .into_inner()
    }

    /// Solves under a deadline/cancellation budget. A
    /// [`Budgeted::Cutoff`] payload is the best *feasible* incumbent found
    /// before the budget expired (not proven optimal); `Cutoff(None)`
    /// means the budget expired before any feasible solution was found.
    ///
    /// # Panics
    /// When the platform has more than 16 processors.
    #[must_use]
    pub fn solve_with_budget(
        &self,
        objective: Objective,
        budget: &Budget,
    ) -> Budgeted<Option<BiSolution>> {
        self.run(objective, budget).outcome
    }

    /// Like [`solve`](Self::solve) but also returns the explored node count
    /// (for the pruning-effectiveness experiment).
    #[must_use]
    pub fn solve_counting(&self, objective: Objective) -> (Option<BiSolution>, u64) {
        let out = self.run(objective, &Budget::unlimited());
        (out.outcome.into_inner(), out.nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::Exhaustive;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rpwf_core::assert_approx_eq;
    use rpwf_core::platform::{FailureClass, PlatformClass};
    use rpwf_gen::{PipelineGen, PlatformGen};

    fn thresholds(pipe: &Pipeline, pf: &Platform) -> Vec<f64> {
        let ex = Exhaustive::new(pipe, pf);
        let lo = ex.min_latency().latency;
        let hi = crate::mono::minimize_failure(pipe, pf).latency;
        (0..4).map(|i| lo + (hi - lo) * i as f64 / 3.0).collect()
    }

    fn het_instance(seed: u64, n: usize, m: usize) -> (Pipeline, Platform) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pipe = PipelineGen::balanced(n).sample(&mut rng);
        let pf = PlatformGen::new(
            m,
            PlatformClass::FullyHeterogeneous,
            FailureClass::Heterogeneous,
        )
        .sample(&mut rng);
        (pipe, pf)
    }

    /// Brute force below one node: checks the node's bounds against the
    /// best completion beneath it, and the per-node open-cost table
    /// against the per-child computation it replaces; returns the
    /// `(least latency, least failure probability)` over its leaves.
    fn brute_force_below(
        t: &TreeCtx,
        stack: &mut Vec<(usize, u32)>,
        next_stage: usize,
        used: u32,
        lat: f64,
        fp_cost: f64,
    ) -> Option<(f64, f64)> {
        let pending = pending_of(stack);
        if next_stage == t.n {
            let (start, end, mask) = pending.expect("a leaf has an interval");
            let latency = lat + t.close_cost(start, end, mask, None);
            return Some((latency, -(-fp_cost).exp_m1()));
        }
        let free = t.full & !used;
        let (mut open, mut row) = (Vec::new(), Vec::new());
        if let Some(p) = pending {
            t.open_costs(p, free, &mut open, &mut row);
        }
        let mut best: Option<(f64, f64)> = None;
        for end in next_stage..t.n {
            let (mut sub, mut rank) = (free, 1usize << free.count_ones());
            while sub != 0 {
                rank -= 1;
                let child_lat = t.open_lat(pending, lat, sub);
                if pending.is_some() {
                    assert_eq!((lat + open[rank]).to_bits(), child_lat.to_bits());
                }
                stack.push((end, sub));
                let below = brute_force_below(
                    t,
                    stack,
                    end + 1,
                    used | sub,
                    child_lat,
                    t.interval_fp_cost(fp_cost, sub),
                );
                stack.pop();
                if let Some((l, f)) = below {
                    best = Some(best.map_or((l, f), |(bl, bf)| (bl.min(l), bf.min(f))));
                }
                sub = (sub - 1) & free;
            }
        }
        if let Some((least_lat, least_fp)) = best {
            // Under MinLatencyUnderFp the bounds come as (latency, FP).
            let (lat_lb, fp_lb, _) = t.node_bounds(lat, fp_cost, pending, next_stage, free);
            assert!(
                lat_lb <= least_lat,
                "latency bound {lat_lb:e} above best completion {least_lat:e} at {stack:?}"
            );
            assert!(
                fp_lb <= least_fp,
                "FP bound {fp_lb:e} above best completion {least_fp:e} at {stack:?}"
            );
        }
        best
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// At every node of the full tree, both lower bounds are at most
        /// the best completion brute force finds below it, bit for bit.
        #[test]
        fn bounds_never_exceed_the_best_completion(
            seed in 0u64..100_000,
            n in 1usize..=4,
            m in 2usize..=5,
        ) {
            let (pipe, pf) = het_instance(seed, n, m);
            let tables = MaskTables::new(&pipe, &pf);
            let t = TreeCtx::new(&pipe, &pf, &tables, Objective::MinLatencyUnderFp(1.0));
            brute_force_below(&t, &mut Vec::new(), 0, 0, 0.0, 0.0);
        }
    }

    #[test]
    fn mask_tables_replay_the_replica_loops() {
        let (pipe, pf) = het_instance(45, 3, 7);
        let t = MaskTables::new(&pipe, &pf);
        for mask in 1..(1usize << pf.n_procs()) {
            let (mut all_fail, mut input, mut fastest) = (LogProb::ONE, 0.0, f64::NEG_INFINITY);
            for u in (0..pf.n_procs())
                .filter(|u| mask & (1 << u) != 0)
                .map(ProcId::new)
            {
                all_fail = all_fail * LogProb::from_prob(pf.failure_prob(u));
                input += pf.comm_time(Vertex::In, Vertex::Proc(u), pipe.input_size());
                fastest = f64::max(fastest, pf.speed(u));
            }
            assert_eq!(
                t.fp_cost[mask].to_bits(),
                (-all_fail.one_minus().ln()).to_bits()
            );
            assert_eq!(t.input_comm[mask].to_bits(), input.to_bits());
            assert_eq!(t.max_speed[mask].to_bits(), fastest.to_bits());
        }
    }

    #[test]
    fn matches_exhaustive_on_fully_het() {
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..6 {
            let pipe = PipelineGen::balanced(3).sample(&mut rng);
            let pf = PlatformGen::new(
                4,
                PlatformClass::FullyHeterogeneous,
                FailureClass::Heterogeneous,
            )
            .sample(&mut rng);
            let bnb = BranchBound::new(&pipe, &pf);
            let ex = Exhaustive::new(&pipe, &pf);
            for l in thresholds(&pipe, &pf) {
                let a = bnb.solve(Objective::MinFpUnderLatency(l));
                let o = ex.solve(Objective::MinFpUnderLatency(l));
                match (a, o) {
                    (Some(a), Some(o)) => assert_approx_eq!(a.failure_prob, o.failure_prob),
                    (None, None) => {}
                    (a, o) => panic!("L={l}: {a:?} vs {o:?}"),
                }
            }
        }
    }

    #[test]
    fn matches_exhaustive_min_latency_under_fp() {
        let mut rng = StdRng::seed_from_u64(34);
        for _ in 0..5 {
            let pipe = PipelineGen::balanced(3).sample(&mut rng);
            let pf = PlatformGen::new(
                4,
                PlatformClass::FullyHeterogeneous,
                FailureClass::Heterogeneous,
            )
            .sample(&mut rng);
            let bnb = BranchBound::new(&pipe, &pf);
            let ex = Exhaustive::new(&pipe, &pf);
            for f in [0.9, 0.5, 0.2, 0.05] {
                let a = bnb.solve(Objective::MinLatencyUnderFp(f));
                let o = ex.solve(Objective::MinLatencyUnderFp(f));
                match (a, o) {
                    (Some(a), Some(o)) => assert_approx_eq!(a.latency, o.latency),
                    (None, None) => {}
                    (a, o) => panic!("FP={f}: {a:?} vs {o:?}"),
                }
            }
        }
    }

    #[test]
    fn figure5_optimum_found() {
        let pipe = rpwf_gen::figure5_pipeline();
        let pf = rpwf_gen::figure5_platform();
        let sol = BranchBound::new(&pipe, &pf)
            .solve(Objective::MinFpUnderLatency(22.0))
            .expect("feasible");
        assert_approx_eq!(sol.failure_prob, 1.0 - 0.9 * (1.0 - 0.8f64.powi(10)));
        assert_approx_eq!(sol.latency, 22.0);
    }

    #[test]
    fn seeding_does_not_change_the_answer() {
        let mut rng = StdRng::seed_from_u64(35);
        let pipe = PipelineGen::balanced(3).sample(&mut rng);
        let pf = PlatformGen::new(
            4,
            PlatformClass::FullyHeterogeneous,
            FailureClass::Heterogeneous,
        )
        .sample(&mut rng);
        let l = thresholds(&pipe, &pf)[2];
        let seeded = BranchBound::new(&pipe, &pf).solve(Objective::MinFpUnderLatency(l));
        let raw = BranchBound {
            seed_with_heuristics: false,
            ..BranchBound::new(&pipe, &pf)
        }
        .solve(Objective::MinFpUnderLatency(l));
        match (seeded, raw) {
            (Some(a), Some(b)) => assert_approx_eq!(a.failure_prob, b.failure_prob),
            (None, None) => {}
            (a, b) => panic!("{a:?} vs {b:?}"),
        }
    }

    #[test]
    fn seeding_prunes_nodes() {
        let mut rng = StdRng::seed_from_u64(36);
        let pipe = PipelineGen::balanced(4).sample(&mut rng);
        let pf = PlatformGen::new(
            6,
            PlatformClass::FullyHeterogeneous,
            FailureClass::Heterogeneous,
        )
        .sample(&mut rng);
        let l = {
            let hi = crate::mono::minimize_failure(&pipe, &pf).latency;
            hi * 0.7
        };
        let (_, seeded_nodes) =
            BranchBound::new(&pipe, &pf).solve_counting(Objective::MinFpUnderLatency(l));
        let (_, raw_nodes) = BranchBound {
            seed_with_heuristics: false,
            ..BranchBound::new(&pipe, &pf)
        }
        .solve_counting(Objective::MinFpUnderLatency(l));
        assert!(
            seeded_nodes <= raw_nodes,
            "seeding must not explore more nodes ({seeded_nodes} vs {raw_nodes})"
        );
    }

    #[test]
    fn unlimited_budget_is_complete_and_matches_solve() {
        let pipe = rpwf_gen::figure5_pipeline();
        let pf = rpwf_gen::figure5_platform();
        let objective = Objective::MinFpUnderLatency(22.0);
        let plain = BranchBound::new(&pipe, &pf).solve(objective);
        let budgeted =
            BranchBound::new(&pipe, &pf).solve_with_budget(objective, &Budget::unlimited());
        assert!(budgeted.is_complete());
        assert_eq!(budgeted.into_inner(), plain);
    }

    #[test]
    fn expired_budget_cuts_off_quickly() {
        // A large instance the raw search could chew on for a long time;
        // with an already-expired deadline and no heuristic seeding the
        // search must unwind almost immediately and report a cutoff.
        let mut rng = StdRng::seed_from_u64(99);
        let pipe = PipelineGen::balanced(8).sample(&mut rng);
        let pf = PlatformGen::new(
            12,
            PlatformClass::FullyHeterogeneous,
            FailureClass::Heterogeneous,
        )
        .sample(&mut rng);
        let budget = Budget::with_deadline(std::time::Duration::ZERO);
        let start = std::time::Instant::now();
        let outcome = BranchBound::new(&pipe, &pf)
            .without_heuristic_seed()
            .solve_with_budget(Objective::MinFpUnderLatency(1e12), &budget);
        assert!(!outcome.is_complete(), "expired budget must report Cutoff");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "cutoff must be prompt, took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn cancellation_token_aborts_search() {
        let mut rng = StdRng::seed_from_u64(98);
        let pipe = PipelineGen::balanced(4).sample(&mut rng);
        let pf = PlatformGen::new(
            6,
            PlatformClass::FullyHeterogeneous,
            FailureClass::Heterogeneous,
        )
        .sample(&mut rng);
        let (budget, handle) = Budget::unlimited().cancellable();
        handle.cancel();
        let outcome = BranchBound::new(&pipe, &pf)
            .without_heuristic_seed()
            .solve_with_budget(Objective::MinFpUnderLatency(1e12), &budget);
        assert!(!outcome.is_complete());
    }

    #[test]
    fn cutoff_incumbent_is_feasible_when_present() {
        let pipe = rpwf_gen::figure5_pipeline();
        let pf = rpwf_gen::figure5_platform();
        let objective = Objective::MinFpUnderLatency(22.0);
        // Heuristic seeding gives an incumbent even at zero budget.
        let outcome = BranchBound::new(&pipe, &pf)
            .solve_with_budget(objective, &Budget::with_deadline(std::time::Duration::ZERO));
        if let Some(sol) = outcome.inner() {
            assert!(objective.feasible(sol.latency, sol.failure_prob));
        }
    }

    #[test]
    fn infeasible_returns_none() {
        let pipe = Pipeline::uniform(2, 100.0, 100.0).unwrap();
        let pf = Platform::fully_homogeneous(3, 1.0, 1.0, 0.9).unwrap();
        assert!(BranchBound::new(&pipe, &pf)
            .solve(Objective::MinFpUnderLatency(1.0))
            .is_none());
    }

    #[test]
    fn handles_larger_instances_than_the_oracle_comfortably() {
        // n = 4, m = 9: the oracle would enumerate up to 5^9 ≈ 2M
        // assignments per partition; B&B finishes quickly and agrees with
        // the bitmask DP on a comm-homogeneous instance (which is also a
        // valid fully-het input).
        let mut rng = StdRng::seed_from_u64(37);
        let pipe = PipelineGen::balanced(4).sample(&mut rng);
        let pf = PlatformGen::new(
            9,
            PlatformClass::CommHomogeneous,
            FailureClass::Heterogeneous,
        )
        .sample(&mut rng);
        let l = crate::mono::minimize_failure(&pipe, &pf).latency * 0.8;
        let bnb = BranchBound::new(&pipe, &pf).solve(Objective::MinFpUnderLatency(l));
        let dp =
            crate::exact::solve_comm_homog(&pipe, &pf, Objective::MinFpUnderLatency(l)).unwrap();
        match (bnb, dp) {
            (Some(a), Some(o)) => assert_approx_eq!(a.failure_prob, o.failure_prob),
            (None, None) => {}
            (a, o) => panic!("{a:?} vs {o:?}"),
        }
    }

    #[test]
    fn parallel_matches_sequential_byte_for_byte() {
        let mut rng = StdRng::seed_from_u64(41);
        for class in [
            PlatformClass::FullyHomogeneous,
            PlatformClass::CommHomogeneous,
            PlatformClass::FullyHeterogeneous,
        ] {
            let pipe = PipelineGen::balanced(4).sample(&mut rng);
            let pf = PlatformGen::new(6, class, FailureClass::Heterogeneous).sample(&mut rng);
            for l in thresholds(&pipe, &pf) {
                let objective = Objective::MinFpUnderLatency(l);
                let seq = BranchBound::new(&pipe, &pf)
                    .without_heuristic_seed()
                    .solve(objective);
                for threads in [2, 3, 4, 8] {
                    let par = BranchBound::new(&pipe, &pf)
                        .without_heuristic_seed()
                        .with_threads(threads)
                        .solve(objective);
                    assert_eq!(
                        serde_json::to_string(&par).unwrap(),
                        serde_json::to_string(&seq).unwrap(),
                        "threads={threads} class={class:?} L={l}"
                    );
                }
            }
        }
    }

    #[test]
    fn split_depth_does_not_change_the_answer() {
        let mut rng = StdRng::seed_from_u64(42);
        let pipe = PipelineGen::balanced(4).sample(&mut rng);
        let pf = PlatformGen::new(
            5,
            PlatformClass::FullyHeterogeneous,
            FailureClass::Heterogeneous,
        )
        .sample(&mut rng);
        let l = thresholds(&pipe, &pf)[1];
        let objective = Objective::MinFpUnderLatency(l);
        let base = BranchBound::new(&pipe, &pf).solve(objective);
        for depth in [2, 3] {
            for threads in [1, 4] {
                let got = BranchBound::new(&pipe, &pf)
                    .with_split_depth(depth)
                    .with_threads(threads)
                    .solve(objective);
                assert_eq!(
                    serde_json::to_string(&got).unwrap(),
                    serde_json::to_string(&base).unwrap(),
                    "depth={depth} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_stats_report_all_workers() {
        let mut rng = StdRng::seed_from_u64(43);
        let pipe = PipelineGen::balanced(4).sample(&mut rng);
        let pf = PlatformGen::new(
            6,
            PlatformClass::FullyHeterogeneous,
            FailureClass::Heterogeneous,
        )
        .sample(&mut rng);
        let l = crate::mono::minimize_failure(&pipe, &pf).latency;
        let (outcome, stats) = BranchBound::new(&pipe, &pf)
            .with_threads(3)
            .solve_with_budget_seeded_stats(
                Objective::MinFpUnderLatency(l),
                &Budget::unlimited(),
                None,
            );
        assert!(outcome.is_complete());
        assert_eq!(stats.threads, 3);
        assert_eq!(stats.workers.len(), 3);
        assert!(stats.nodes() > 0);
        // Every unit is claimed exactly once across the pool.
        let full = (1u64 << 6) - 1;
        assert_eq!(stats.units_executed(), 4 * full);
        assert!(stats.improvements() >= 1, "the optimum must be published");
    }

    #[test]
    fn parallel_cutoff_is_sound_and_cancels_all_workers() {
        // Mid-search expiry: all workers must stop promptly and any
        // reported incumbent must be feasible. The instance takes about a
        // second to search sequentially in a release build.
        let mut rng = StdRng::seed_from_u64(44);
        let pipe = PipelineGen::balanced(10).sample(&mut rng);
        let pf = PlatformGen::new(
            14,
            PlatformClass::FullyHeterogeneous,
            FailureClass::Heterogeneous,
        )
        .sample(&mut rng);
        let objective =
            Objective::MinFpUnderLatency(crate::mono::minimize_failure(&pipe, &pf).latency * 0.5);
        let budget = Budget::with_deadline(std::time::Duration::from_millis(30));
        let start = std::time::Instant::now();
        let outcome = BranchBound::new(&pipe, &pf)
            .without_heuristic_seed()
            .with_threads(4)
            .solve_with_budget(objective, &budget);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "cutoff must cancel all workers promptly, took {:?}",
            start.elapsed()
        );
        assert!(!outcome.is_complete());
        if let Some(sol) = outcome.inner() {
            assert!(objective.feasible(sol.latency, sol.failure_prob));
        }
    }
}
