//! Turning samples into the reported metrics: the failure tally and the
//! end-to-end metrics, and the per-layer metrics derived from `Metrics`
//! counter deltas.

use crate::client::Conn;
use crate::load::Sample;
use crate::prom::Snapshot;
use crate::session::Observed;
use crate::stats::{median, quantile, ratio};
use rpwf_server::Response;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Per-request outcomes of one timed window.
pub struct Tally {
    pub attempted: u64,
    /// Latency of every correct `ok` answer, ms.
    pub ok_ms: Vec<f64>,
    /// The request index of every correct `ok` answer.
    pub ok_index: Vec<usize>,
    /// The same split by the client-span half they ran in.
    pub traced_ms: Vec<f64>,
    pub untraced_ms: Vec<f64>,
    pub failures: BTreeMap<String, u64>,
    pub within_slo: u64,
    pub gate: Result<(), String>,
}

impl Tally {
    /// Classifies every sample: transport errors and error answers are
    /// tallied by kind; `ok` answers go through `check`, whose first
    /// mismatch fails the gate.
    pub fn of(
        samples: &[Sample],
        slo_ms: f64,
        mut check: impl FnMut(&Sample, &Response) -> Result<(), String>,
    ) -> Tally {
        let mut tally = Tally {
            attempted: 0,
            ok_ms: Vec::new(),
            ok_index: Vec::new(),
            traced_ms: Vec::new(),
            untraced_ms: Vec::new(),
            failures: BTreeMap::new(),
            within_slo: 0,
            gate: Ok(()),
        };
        for sample in samples {
            tally.attempted += 1;
            if let Some(e) = &sample.transport_error {
                *tally.failures.entry("transport".into()).or_default() += 1;
                eprintln!("transport failure: {e}");
                continue;
            }
            let response = match sample.lines.last().map(|l| crate::check::parse(l)) {
                Some(Ok(response)) => response,
                Some(Err(e)) => {
                    tally.fail_gate(e);
                    continue;
                }
                None => {
                    tally.fail_gate("a request was answered with no line".into());
                    continue;
                }
            };
            if let Some(kind) = crate::check::error_kind(&response) {
                *tally.failures.entry(kind).or_default() += 1;
                continue;
            }
            if let Err(e) = check(sample, &response) {
                tally.fail_gate(e);
                continue;
            }
            let ms = sample.latency_us / 1e3;
            tally.ok_ms.push(ms);
            tally.ok_index.push(sample.index);
            if sample.traced {
                tally.traced_ms.push(ms);
            } else {
                tally.untraced_ms.push(ms);
            }
            if ms <= slo_ms {
                tally.within_slo += 1;
            }
        }
        tally
    }

    fn fail_gate(&mut self, e: String) {
        if self.gate.is_ok() {
            self.gate = Err(e);
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Correct `ok` answers per second of each session's window, where
    /// `session_of` maps a request index to its session.
    pub fn session_throughputs(
        &self,
        windows: &[f64],
        session_of: impl Fn(usize) -> usize,
    ) -> Vec<f64> {
        let mut answers = vec![0usize; windows.len()];
        for &index in &self.ok_index {
            answers[session_of(index)] += 1;
        }
        answers
            .iter()
            .zip(windows)
            .map(|(&n, &w)| n as f64 / w)
            .collect()
    }

    /// The end-to-end metrics, printed with their sample counts.
    /// `throughput_rps` is the answers over the whole window, or with
    /// `per_session`, the median of the sessions' throughputs.
    pub fn end_to_end(
        &self,
        window_s: f64,
        slo_ms: f64,
        setups: &[f64],
        per_session: Option<&[f64]>,
    ) -> BTreeMap<String, f64> {
        let n = self.ok_ms.len();
        let mut m = BTreeMap::new();
        m.insert(
            "throughput_rps".into(),
            per_session.map_or(n as f64 / window_s, median),
        );
        m.insert("latency_p50_ms".into(), quantile(&self.ok_ms, 0.50));
        m.insert("latency_p90_ms".into(), quantile(&self.ok_ms, 0.90));
        m.insert("latency_p99_ms".into(), quantile(&self.ok_ms, 0.99));
        m.insert(
            "slo_attainment".into(),
            ratio(self.within_slo as f64, self.attempted as f64),
        );
        m.insert("setup_s".into(), median(setups));
        match per_session {
            Some(sessions) => println!(
                "  throughput_rps   {:>12.3} 1/s  (median of {} sessions {:.3?}; {n} correct ok answers in {window_s:.3} s)",
                m["throughput_rps"],
                sessions.len(),
                sessions
            ),
            None => println!(
                "  throughput_rps   {:>12.3} 1/s  ({n} correct ok answers in {window_s:.3} s)",
                m["throughput_rps"]
            ),
        }
        for (name, tail) in [
            ("latency_p50_ms", n / 2),
            ("latency_p90_ms", n / 10),
            ("latency_p99_ms", n / 100),
        ] {
            println!(
                "  {name:<16} {:>12.4} ms   (n={n}, {tail} samples beyond)",
                m[name]
            );
        }
        println!(
            "  slo_attainment   {:>12.4}      ({} of {} attempted within {slo_ms} ms)",
            m["slo_attainment"], self.within_slo, self.attempted
        );
        println!(
            "  failed_share     {:>12.4}      ({} of {} attempted; by kind {:?})",
            ratio(self.failed() as f64, self.attempted as f64),
            self.failed(),
            self.attempted,
            self.failures
        );
        println!(
            "  setup_s          {:>12.4} s    (median of {} set-ups {:?})",
            m["setup_s"],
            setups.len(),
            setups
        );
        m
    }
}

/// Front-capable engine backends: their calls are front builds.
const FRONT_SOLVERS: &[&str] = &["bitmask-dp", "exhaustive", "bnb-sweep", "portfolio-front"];

/// The per-layer metrics that come from `Metrics` observations of the
/// timed windows (counter deltas summed over every node of a fleet, and
/// the sampled gauges). `entered` is the number of requests the clients
/// sent.
pub fn counter_layers(observed: &Observed, entered: f64, m: &mut BTreeMap<String, f64>) {
    m.insert("admission.queue_depth_max".into(), observed.queue_depth_max);
    m.insert(
        "admission.estimated_wait_us".into(),
        observed.estimated_wait_us,
    );
    let delta = &observed.delta;
    let hits = delta.total("rpwf_cache_hits_total");
    let misses = delta.total("rpwf_cache_misses_total");
    m.insert("cache.hit_ratio".into(), ratio(hits, hits + misses));
    m.insert(
        "cache.evictions".into(),
        delta.total("rpwf_cache_evictions_total"),
    );
    let front_calls: f64 = FRONT_SOLVERS
        .iter()
        .map(|s| delta.labeled("rpwf_engine_solver_calls_total", &format!("solver=\"{s}\"")))
        .sum();
    m.insert(
        "engine.front_builds_per_miss".into(),
        ratio(front_calls, misses),
    );
    for s in crate::SOLVERS {
        m.insert(
            format!("engine.solver_ms.{s}"),
            delta.labeled(
                "rpwf_engine_solver_elapsed_us_total",
                &format!("solver=\"{s}\""),
            ) / 1e3,
        );
    }
    let explains = delta.total("rpwf_explain_calls_total");
    let oracle = delta.total("rpwf_explain_oracle_calls_total");
    m.insert(
        "explain.oracle_calls_per_explain".into(),
        ratio(oracle, explains),
    );
    m.insert(
        "explain.oracle_cached_share".into(),
        ratio(delta.total("rpwf_explain_oracle_cached_total"), oracle),
    );
    m.insert(
        "router.forward_share".into(),
        ratio(delta.total("rpwf_ring_forwards_total"), entered),
    );
    m.insert(
        "peer.forward_failures".into(),
        delta.total("rpwf_ring_forward_failures_total"),
    );
    m.insert(
        "ring.failovers".into(),
        delta.total("rpwf_ring_failovers_total"),
    );
    m.insert(
        "replication.cache_fills".into(),
        delta.labeled("rpwf_command_requests_total", "cmd=\"cache_fill\""),
    );
    m.insert(
        "admission.shed".into(),
        delta.total("rpwf_admission_shed_queue_full_total")
            + delta.total("rpwf_admission_shed_deadline_total"),
    );
    m.insert(
        "reactor.loop_us_p99".into(),
        delta.histogram_quantile("rpwf_reactor_loop_us", 0.99),
    );
}

/// Scrapes every node, summed.
pub fn scrape_all(addrs: &[String]) -> Result<Snapshot, String> {
    let mut snaps = Vec::with_capacity(addrs.len());
    for addr in addrs {
        let mut conn = Conn::connect(addr, Duration::from_secs(5))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        snaps.push(Snapshot::scrape(&mut conn)?);
    }
    Ok(Snapshot::sum_of(&snaps))
}

/// Samples the admission gauges of every node every 100 ms until `stop`,
/// returning the largest queue depth and estimated wait seen on any node.
pub fn sample_gauges(addrs: &[String], stop: &AtomicBool) -> Result<(f64, f64), String> {
    let mut conns = Vec::with_capacity(addrs.len());
    for addr in addrs {
        conns.push(
            Conn::connect(addr, Duration::from_secs(5))
                .map_err(|e| format!("connect {addr}: {e}"))?,
        );
    }
    let (mut depth, mut wait) = (0.0f64, 0.0f64);
    while !stop.load(Ordering::SeqCst) {
        for conn in &mut conns {
            let snap = Snapshot::scrape(conn)?;
            depth = depth.max(snap.total("rpwf_admission_queue_depth"));
            wait = wait.max(snap.total("rpwf_admission_estimated_wait_us"));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    Ok((depth, wait))
}

/// The tracing overhead: traced-half minus untraced-half latency.
pub fn overhead(tally: &Tally, m: &mut BTreeMap<String, f64>) {
    for (name, q) in [
        ("trace.overhead_p50_ms", 0.5),
        ("trace.overhead_p90_ms", 0.9),
    ] {
        let traced = quantile(&tally.traced_ms, q);
        let untraced = quantile(&tally.untraced_ms, q);
        println!(
            "  {name}: traced {traced:.4} ms (n={}) - untraced {untraced:.4} ms (n={})",
            tally.traced_ms.len(),
            tally.untraced_ms.len()
        );
        m.insert(name.into(), traced - untraced);
    }
}

/// Prints the p50 of each client span of the traced half (the open loop
/// records only the parse span).
pub fn print_client_spans(spans: &crate::load::ClientSpans) {
    let named = [
        ("write", &spans.write_us),
        ("wait", &spans.wait_us),
        ("read", &spans.read_us),
        ("parse", &spans.parse_us),
    ];
    let shown: Vec<String> = named
        .iter()
        .filter(|(_, v)| !v.is_empty())
        .map(|(name, v)| format!("{name} {:.1}", median(v)))
        .collect();
    println!(
        "  client spans p50 (us): {} (n={})",
        shown.join(", "),
        spans.parse_us.len()
    );
}
