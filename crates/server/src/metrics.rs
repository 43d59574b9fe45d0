//! Service observability: per-command latency histograms, per-solver
//! execution counters ([`SolverMetrics`] — the engine's solver mix), the
//! cold-`Solve` plan and single-flight counters ([`FrontMetrics`]), and
//! a Prometheus-style plain-text dump.
//!
//! Recording is lock-free (one atomic increment per request into a fixed
//! log-scale bucket array; a handful of atomic adds per solve for the
//! solver mix), so it sits on the hot path of every command. Buckets are
//! powers of two in microseconds from 1 µs to ~1 s plus a catch-all,
//! which keeps quantile estimates within a factor of two — plenty for
//! spotting regressions and tail blowups.

use crate::protocol::{Command, CommandStatsOut, SolverStatsOut};
use rpwf_algo::engine::SolverStat;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of finite buckets: upper bounds `2^0 .. 2^19` µs (~0.5 s), the
/// last bucket catches everything beyond.
const BUCKETS: usize = 20;

/// Upper bound (µs) of bucket `i`; the final bucket is unbounded.
#[must_use]
pub fn bucket_bound_us(i: usize) -> u64 {
    1u64 << i
}

/// A fixed log-scale latency histogram.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS + 1],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, us: u64) {
        let idx = if us <= 1 {
            0
        } else {
            let bits = 64 - (us - 1).leading_zeros() as usize; // ceil(log2)
            bits.min(BUCKETS)
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Smallest bucket upper bound below which at least `q` (0..=1) of
    /// the observations fall; the max observation for the catch-all.
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for i in 0..BUCKETS {
            seen += self.buckets[i].load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_bound_us(i);
            }
        }
        self.max_us.load(Ordering::Relaxed)
    }

    /// Renders this histogram as a standalone Prometheus-style series
    /// `name` (`# TYPE` header, cumulative `_bucket{le=…}` counters,
    /// `_sum`, `_count`) — the rendering used for the unlabeled serving
    /// histograms (`rpwf_reactor_loop_us`, `rpwf_admission_shed_latency_us`).
    /// Empty histograms still render (all-zero buckets), so a scrape
    /// always sees the series.
    pub fn render_prometheus_series(&self, name: &str, out: &mut String) {
        use std::fmt::Write as _;
        writeln!(out, "# TYPE {name} histogram").expect("write to string");
        let mut cumulative = 0u64;
        for i in 0..BUCKETS {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            writeln!(
                out,
                "{name}_bucket{{le=\"{}\"}} {cumulative}",
                bucket_bound_us(i)
            )
            .expect("write to string");
        }
        cumulative += self.buckets[BUCKETS].load(Ordering::Relaxed);
        writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}").expect("write to string");
        writeln!(out, "{name}_sum {}", self.sum_us.load(Ordering::Relaxed))
            .expect("write to string");
        writeln!(out, "{name}_count {}", self.count()).expect("write to string");
    }

    /// Snapshot for the `Stats` command; `None` when nothing was recorded.
    #[must_use]
    pub fn summary(&self, command: &str) -> Option<CommandStatsOut> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss)]
        Some(CommandStatsOut {
            command: command.to_string(),
            count,
            mean_us: self.sum_us.load(Ordering::Relaxed) as f64 / count as f64,
            p50_us: self.quantile_us(0.50),
            p90_us: self.quantile_us(0.90),
            p99_us: self.quantile_us(0.99),
            max_us: self.max_us.load(Ordering::Relaxed),
        })
    }
}

/// One histogram per protocol command.
#[derive(Debug)]
pub struct CommandMetrics {
    histograms: Vec<LatencyHistogram>,
}

impl Default for CommandMetrics {
    fn default() -> Self {
        CommandMetrics {
            histograms: Command::all_names()
                .iter()
                .map(|_| LatencyHistogram::default())
                .collect(),
        }
    }
}

impl CommandMetrics {
    /// A fresh registry.
    #[must_use]
    pub fn new() -> Self {
        CommandMetrics::default()
    }

    /// Records one handled request of command `name` taking `us`
    /// microseconds. Unknown names are ignored (future-proofing).
    pub fn record(&self, name: &str, us: u64) {
        if let Some(idx) = Command::all_names().iter().position(|&n| n == name) {
            self.histograms[idx].record(us);
        }
    }

    /// Per-command summaries for commands that saw traffic, in the stable
    /// [`Command::all_names`] order.
    #[must_use]
    pub fn summaries(&self) -> Vec<CommandStatsOut> {
        Command::all_names()
            .iter()
            .zip(&self.histograms)
            .filter_map(|(name, h)| h.summary(name))
            .collect()
    }

    /// Renders the histograms in Prometheus exposition style (cumulative
    /// `_bucket{le=…}` counters, `_sum`, `_count`) into `out`.
    pub fn render_prometheus(&self, out: &mut String) {
        use std::fmt::Write as _;
        let w = |out: &mut String, line: std::fmt::Arguments<'_>| {
            writeln!(out, "{line}").expect("write to string");
        };
        w(
            out,
            format_args!("# TYPE rpwf_command_requests_total counter"),
        );
        for (name, h) in Command::all_names().iter().zip(&self.histograms) {
            w(
                out,
                format_args!(
                    "rpwf_command_requests_total{{cmd=\"{name}\"}} {}",
                    h.count()
                ),
            );
        }
        w(
            out,
            format_args!("# TYPE rpwf_command_latency_us histogram"),
        );
        for (name, h) in Command::all_names().iter().zip(&self.histograms) {
            if h.count() == 0 {
                continue;
            }
            let mut cumulative = 0u64;
            for i in 0..BUCKETS {
                cumulative += h.buckets[i].load(Ordering::Relaxed);
                w(
                    out,
                    format_args!(
                        "rpwf_command_latency_us_bucket{{cmd=\"{name}\",le=\"{}\"}} {cumulative}",
                        bucket_bound_us(i)
                    ),
                );
            }
            cumulative += h.buckets[BUCKETS].load(Ordering::Relaxed);
            w(
                out,
                format_args!(
                    "rpwf_command_latency_us_bucket{{cmd=\"{name}\",le=\"+Inf\"}} {cumulative}"
                ),
            );
            w(
                out,
                format_args!(
                    "rpwf_command_latency_us_sum{{cmd=\"{name}\"}} {}",
                    h.sum_us.load(Ordering::Relaxed)
                ),
            );
            w(
                out,
                format_args!(
                    "rpwf_command_latency_us_count{{cmd=\"{name}\"}} {}",
                    h.count()
                ),
            );
        }
    }
}

/// Lock-free counters for one solver backend.
#[derive(Debug, Default)]
struct SolverSlot {
    calls: AtomicU64,
    elapsed_us: AtomicU64,
    complete: AtomicU64,
    produced: AtomicU64,
    units_executed: AtomicU64,
    units_stolen: AtomicU64,
    improvements: AtomicU64,
}

/// Per-solver execution counters, keyed by the engine's registry names.
///
/// Built once from `Engine::solvers()` at service construction; recording
/// a [`SolveReport`](rpwf_algo::engine::SolveReport)'s stats is a name
/// lookup plus four relaxed atomic adds per executed backend. Names not
/// in the registry (a backend registered after the service was built) are
/// ignored, mirroring [`CommandMetrics::record`].
#[derive(Debug)]
pub struct SolverMetrics {
    names: Vec<&'static str>,
    slots: Vec<SolverSlot>,
}

impl SolverMetrics {
    /// A registry over the given solver names (preference order).
    #[must_use]
    pub fn new(names: Vec<&'static str>) -> Self {
        let slots = names.iter().map(|_| SolverSlot::default()).collect();
        SolverMetrics { names, slots }
    }

    /// Folds one solve's per-backend stats into the counters.
    pub fn record(&self, stats: &[SolverStat]) {
        for stat in stats {
            let Some(idx) = self.names.iter().position(|&n| n == stat.solver) else {
                continue;
            };
            let slot = &self.slots[idx];
            slot.calls.fetch_add(1, Ordering::Relaxed);
            slot.elapsed_us
                .fetch_add(stat.elapsed_us, Ordering::Relaxed);
            if stat.complete {
                slot.complete.fetch_add(1, Ordering::Relaxed);
            }
            if stat.produced {
                slot.produced.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(par) = stat.parallel {
                slot.units_executed
                    .fetch_add(par.units_executed, Ordering::Relaxed);
                slot.units_stolen
                    .fetch_add(par.units_stolen, Ordering::Relaxed);
                slot.improvements
                    .fetch_add(par.improvements, Ordering::Relaxed);
            }
        }
    }

    /// Snapshot for the `Stats` command: backends that were called, in
    /// registry order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<SolverStatsOut> {
        self.names
            .iter()
            .zip(&self.slots)
            .filter(|(_, slot)| slot.calls.load(Ordering::Relaxed) > 0)
            .map(|(name, slot)| SolverStatsOut {
                solver: (*name).to_string(),
                calls: slot.calls.load(Ordering::Relaxed),
                elapsed_us: slot.elapsed_us.load(Ordering::Relaxed),
                complete: slot.complete.load(Ordering::Relaxed),
                produced: slot.produced.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Renders `rpwf_engine_solver_*` counters (every registered backend,
    /// including zeros — a scrape sees the full solver roster).
    pub fn render_prometheus(&self, out: &mut String) {
        use std::fmt::Write as _;
        for (metric, read) in [
            (
                "rpwf_engine_solver_calls_total",
                (|slot: &SolverSlot| slot.calls.load(Ordering::Relaxed)) as fn(&SolverSlot) -> u64,
            ),
            ("rpwf_engine_solver_elapsed_us_total", |slot| {
                slot.elapsed_us.load(Ordering::Relaxed)
            }),
            ("rpwf_engine_solver_complete_total", |slot| {
                slot.complete.load(Ordering::Relaxed)
            }),
            ("rpwf_engine_solver_produced_total", |slot| {
                slot.produced.load(Ordering::Relaxed)
            }),
            ("rpwf_engine_solver_work_units_total", |slot| {
                slot.units_executed.load(Ordering::Relaxed)
            }),
            ("rpwf_engine_solver_work_units_stolen_total", |slot| {
                slot.units_stolen.load(Ordering::Relaxed)
            }),
            ("rpwf_engine_solver_incumbent_improvements_total", |slot| {
                slot.improvements.load(Ordering::Relaxed)
            }),
        ] {
            writeln!(out, "# TYPE {metric} counter").expect("write to string");
            for (name, slot) in self.names.iter().zip(&self.slots) {
                writeln!(out, "{metric}{{solver=\"{name}\"}} {}", read(slot))
                    .expect("write to string");
            }
        }
    }
}

/// Counters for the `Explain` machinery: calls, oracle effort, the
/// cache-served fraction's numerator/denominator, and a MUS-size
/// histogram. Lock-free like every other registry here. Effort counters
/// live *only* in metrics — the wire explanation excludes them so warm
/// and cold nodes answer byte-identically.
#[derive(Debug, Default)]
pub struct ExplainMetrics {
    calls: AtomicU64,
    feasible: AtomicU64,
    unproven: AtomicU64,
    oracle_calls: AtomicU64,
    oracle_cached: AtomicU64,
    /// MUS sizes 1..=4 (index `size - 1`); the universe has 4 members.
    mus_sizes: [AtomicU64; 4],
}

impl ExplainMetrics {
    /// A fresh registry.
    #[must_use]
    pub fn new() -> Self {
        ExplainMetrics::default()
    }

    /// Folds one assembled explanation into the counters.
    pub fn record(&self, explanation: &rpwf_algo::Explanation) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if explanation.feasible {
            self.feasible.fetch_add(1, Ordering::Relaxed);
        }
        if !explanation.proven {
            self.unproven.fetch_add(1, Ordering::Relaxed);
        }
        self.oracle_calls
            .fetch_add(explanation.oracle_calls, Ordering::Relaxed);
        self.oracle_cached
            .fetch_add(explanation.oracle_cached, Ordering::Relaxed);
        for mus in &explanation.muses {
            if let Some(slot) = mus.len().checked_sub(1).and_then(|i| self.mus_sizes.get(i)) {
                slot.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Renders the `rpwf_explain_*` counters.
    pub fn render_prometheus(&self, out: &mut String) {
        use std::fmt::Write as _;
        for (metric, value) in [
            (
                "rpwf_explain_calls_total",
                self.calls.load(Ordering::Relaxed),
            ),
            (
                "rpwf_explain_feasible_total",
                self.feasible.load(Ordering::Relaxed),
            ),
            (
                "rpwf_explain_unproven_total",
                self.unproven.load(Ordering::Relaxed),
            ),
            (
                "rpwf_explain_oracle_calls_total",
                self.oracle_calls.load(Ordering::Relaxed),
            ),
            (
                "rpwf_explain_oracle_cached_total",
                self.oracle_cached.load(Ordering::Relaxed),
            ),
        ] {
            writeln!(out, "# TYPE {metric} counter").expect("write to string");
            writeln!(out, "{metric} {value}").expect("write to string");
        }
        writeln!(out, "# TYPE rpwf_explain_mus_size_total counter").expect("write to string");
        for (i, slot) in self.mus_sizes.iter().enumerate() {
            writeln!(
                out,
                "rpwf_explain_mus_size_total{{size=\"{}\"}} {}",
                i + 1,
                slot.load(Ordering::Relaxed)
            )
            .expect("write to string");
        }
    }
}

/// Counters for the cold-`Solve` plan choice and for single-flight front
/// builds: which plan each `Solve` that reached the engine ran (the point
/// race alone, or a front build the point is read off), and how many
/// misses waited on a front build already in flight instead of starting
/// their own.
#[derive(Debug, Default)]
pub struct FrontMetrics {
    cold_point: AtomicU64,
    cold_front: AtomicU64,
    joins: AtomicU64,
}

impl FrontMetrics {
    /// A fresh registry.
    #[must_use]
    pub fn new() -> Self {
        FrontMetrics::default()
    }

    /// Counts one `Solve` that ran the engine, on the front plan when
    /// `front` is set and on the point plan otherwise.
    pub fn record_cold_plan(&self, front: bool) {
        let counter = if front {
            &self.cold_front
        } else {
            &self.cold_point
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one miss that waited on an in-flight front build.
    pub fn record_join(&self) {
        self.joins.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders `rpwf_solve_cold_plan_total` and
    /// `rpwf_front_build_joins_total`.
    pub fn render_prometheus(&self, out: &mut String) {
        use std::fmt::Write as _;
        writeln!(out, "# TYPE rpwf_solve_cold_plan_total counter").expect("write to string");
        for (plan, counter) in [("point", &self.cold_point), ("front", &self.cold_front)] {
            writeln!(
                out,
                "rpwf_solve_cold_plan_total{{plan=\"{plan}\"}} {}",
                counter.load(Ordering::Relaxed)
            )
            .expect("write to string");
        }
        writeln!(out, "# TYPE rpwf_front_build_joins_total counter").expect("write to string");
        writeln!(
            out,
            "rpwf_front_build_joins_total {}",
            self.joins.load(Ordering::Relaxed)
        )
        .expect("write to string");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log_scale_and_cumulative() {
        let h = LatencyHistogram::default();
        for us in [1u64, 2, 3, 4, 100, 400_000, u64::MAX / 2] {
            h.record(us);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max_us.load(Ordering::Relaxed), u64::MAX / 2);
        // 1 → bucket 0 (≤1), 2 → bucket 1 (≤2), 3,4 → bucket 2 (≤4).
        assert_eq!(h.buckets[0].load(Ordering::Relaxed), 1);
        assert_eq!(h.buckets[1].load(Ordering::Relaxed), 1);
        assert_eq!(h.buckets[2].load(Ordering::Relaxed), 2);
        // The huge value lands in the catch-all.
        assert_eq!(h.buckets[BUCKETS].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn quantiles_walk_the_cumulative_counts() {
        let h = LatencyHistogram::default();
        for _ in 0..90 {
            h.record(10); // bucket le=16
        }
        for _ in 0..10 {
            h.record(5_000); // bucket le=8192
        }
        assert_eq!(h.quantile_us(0.5), 16);
        assert_eq!(h.quantile_us(0.9), 16);
        assert_eq!(h.quantile_us(0.99), 8192);
        assert_eq!(LatencyHistogram::default().quantile_us(0.5), 0);
    }

    #[test]
    fn registry_records_by_name_and_summarizes() {
        let m = CommandMetrics::new();
        m.record("solve", 100);
        m.record("solve", 200);
        m.record("ping", 1);
        m.record("bogus", 1); // ignored
        let s = m.summaries();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].command, "ping");
        assert_eq!(s[1].command, "solve");
        assert_eq!(s[1].count, 2);
        assert!((s[1].mean_us - 150.0).abs() < 1e-9);
        assert!(s[1].max_us == 200);
    }

    #[test]
    fn solver_metrics_fold_stats_and_render() {
        let m = SolverMetrics::new(vec!["bitmask-dp", "local-search"]);
        m.record(&[
            SolverStat {
                solver: "bitmask-dp",
                elapsed_us: 120,
                complete: true,
                produced: true,
                parallel: None,
            },
            SolverStat {
                solver: "local-search",
                elapsed_us: 80,
                complete: true,
                produced: false,
                parallel: None,
            },
            SolverStat {
                solver: "unregistered",
                elapsed_us: 1,
                complete: false,
                produced: false,
                parallel: None,
            },
        ]);
        m.record(&[SolverStat {
            solver: "bitmask-dp",
            elapsed_us: 30,
            complete: false,
            produced: true,
            parallel: None,
        }]);
        let snap = m.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].solver, "bitmask-dp");
        assert_eq!(snap[0].calls, 2);
        assert_eq!(snap[0].elapsed_us, 150);
        assert_eq!(snap[0].complete, 1);
        assert_eq!(snap[0].produced, 2);
        let mut text = String::new();
        m.render_prometheus(&mut text);
        assert!(
            text.contains("rpwf_engine_solver_calls_total{solver=\"bitmask-dp\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("rpwf_engine_solver_elapsed_us_total{solver=\"local-search\"} 80"),
            "{text}"
        );
        assert!(
            text.contains("rpwf_engine_solver_produced_total{solver=\"local-search\"} 0"),
            "{text}"
        );
    }

    #[test]
    fn solver_metrics_fold_parallel_search_counters() {
        use rpwf_algo::engine::ParallelSummary;

        let m = SolverMetrics::new(vec!["branch-bound"]);
        m.record(&[SolverStat {
            solver: "branch-bound",
            elapsed_us: 500,
            complete: true,
            produced: true,
            parallel: Some(ParallelSummary {
                threads: 4,
                units_executed: 60,
                units_stolen: 12,
                improvements: 3,
            }),
        }]);
        m.record(&[SolverStat {
            solver: "branch-bound",
            elapsed_us: 100,
            complete: true,
            produced: true,
            parallel: Some(ParallelSummary {
                threads: 4,
                units_executed: 10,
                units_stolen: 2,
                improvements: 1,
            }),
        }]);
        let mut text = String::new();
        m.render_prometheus(&mut text);
        assert!(
            text.contains("rpwf_engine_solver_work_units_total{solver=\"branch-bound\"} 70"),
            "{text}"
        );
        assert!(
            text.contains("rpwf_engine_solver_work_units_stolen_total{solver=\"branch-bound\"} 14"),
            "{text}"
        );
        assert!(
            text.contains(
                "rpwf_engine_solver_incumbent_improvements_total{solver=\"branch-bound\"} 4"
            ),
            "{text}"
        );
    }

    #[test]
    fn explain_metrics_fold_and_render() {
        let m = ExplainMetrics::new();
        m.record(&rpwf_algo::Explanation {
            objective: rpwf_algo::Objective::MinFpUnderLatency(1.0),
            universe: Vec::new(),
            feasible: false,
            muses: vec![vec![0, 1], vec![0]],
            mcses: vec![vec![2]],
            relaxation: None,
            proven: false,
            oracle_calls: 5,
            oracle_cached: 2,
        });
        let mut text = String::new();
        m.render_prometheus(&mut text);
        assert!(text.contains("rpwf_explain_calls_total 1"), "{text}");
        assert!(text.contains("rpwf_explain_unproven_total 1"), "{text}");
        assert!(text.contains("rpwf_explain_oracle_calls_total 5"), "{text}");
        assert!(
            text.contains("rpwf_explain_oracle_cached_total 2"),
            "{text}"
        );
        assert!(
            text.contains("rpwf_explain_mus_size_total{size=\"1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("rpwf_explain_mus_size_total{size=\"2\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn prometheus_dump_shape() {
        let m = CommandMetrics::new();
        m.record("solve", 100);
        let mut text = String::new();
        m.render_prometheus(&mut text);
        assert!(
            text.contains("rpwf_command_requests_total{cmd=\"solve\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("le=\"+Inf\"}} 1") || text.contains("le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("rpwf_command_latency_us_count{cmd=\"solve\"} 1"),
            "{text}"
        );
        // Untouched commands report zero request counters but no buckets.
        assert!(
            text.contains("rpwf_command_requests_total{cmd=\"pareto\"} 0"),
            "{text}"
        );
        assert!(!text.contains("latency_us_bucket{cmd=\"pareto\""), "{text}");

        let front = FrontMetrics::new();
        front.record_cold_plan(false);
        front.record_cold_plan(false);
        front.record_cold_plan(true);
        front.record_join();
        let mut text = String::new();
        front.render_prometheus(&mut text);
        assert!(
            text.contains("rpwf_solve_cold_plan_total{plan=\"point\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("rpwf_solve_cold_plan_total{plan=\"front\"} 1"),
            "{text}"
        );
        assert!(text.contains("rpwf_front_build_joins_total 1"), "{text}");
    }
}
