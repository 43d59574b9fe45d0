//! The rpwf serving benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm-hit --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Three workloads (`warm-hit`, `cold-point`, `fleet-mixed`) drive
//! `rpwf_server::Server` in-process over TCP. With `--trace 0` the run
//! reports the end-to-end metrics a client sees; with `--trace 1` it
//! reports the per-layer breakdown. The last line of stdout is one JSON
//! object; every earlier line is for people. Any correctness-gate
//! mismatch exits non-zero. `DESIGN.md` beside this crate records the
//! workloads, the metrics and the layer → metric → workload predictions.

mod check;
mod client;
mod cold_point;
mod fleet_mixed;
mod inputs;
mod layers;
mod load;
mod prom;
mod report;
mod rng;
mod session;
mod stats;
mod warm_hit;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// The end-to-end metrics in the result line of every `--trace 0` run.
/// Each run also prints `latency_p50_ms`, `latency_p90_ms`,
/// `latency_p99_ms` and `failed_share` with their sample counts;
/// DESIGN.md says why those are not in the result line yet.
const END_TO_END: &[(&str, &str)] = &[
    ("throughput_rps", "1/s"),
    ("slo_attainment", "share"),
    ("setup_s", "s"),
];

/// Engine backends whose busy time is broken out as
/// `engine.solver_ms.<name>`, in registration order.
const SOLVERS: &[&str] = &[
    "bitmask-dp",
    "branch-bound",
    "exhaustive",
    "bnb-sweep",
    "interval-dp",
    "one-to-one",
    "single-interval",
    "split-dp",
    "local-search",
    "annealing",
    "random-search",
    "portfolio-front",
];

/// The per-layer metrics, reported by every workload with `--trace 1`.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("protocol.decode_us", "us"),
        ("protocol.encode_us", "us"),
        ("protocol.request_bytes", "bytes"),
        ("protocol.response_bytes", "bytes"),
        ("hash.instance_key_us", "us"),
        ("service.handle_us_p50", "us"),
        ("service.handle_us_p99", "us"),
        ("transport.overhead_us", "us"),
        ("cache.hit_ratio", "share"),
        ("cache.evictions", "count"),
        ("engine.point_race_ms_p50", "ms"),
        ("engine.point_race_ms_p90", "ms"),
        ("engine.point_front_ms_p50", "ms"),
        ("engine.point_front_ms_p90", "ms"),
        ("engine.front_builds_per_miss", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    out.extend(
        SOLVERS
            .iter()
            .map(|s| (format!("engine.solver_ms.{s}"), "ms")),
    );
    out.extend(
        [
            ("explain.oracle_calls_per_explain", "count"),
            ("explain.oracle_cached_share", "share"),
            ("router.forward_share", "share"),
            ("peer.hop_us", "us"),
            ("peer.forward_failures", "count"),
            ("ring.failovers", "count"),
            ("replication.cache_fills", "count"),
            ("admission.queue_depth_max", "count"),
            ("admission.shed", "count"),
            ("admission.estimated_wait_us", "us"),
            ("reactor.loop_us_p99", "us"),
            ("bench.generator_lag_ms", "ms"),
            ("trace.overhead_p50_ms", "ms"),
            ("trace.overhead_p90_ms", "ms"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    out
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Whether `--held-out` was given (`seed` is then already salted).
    pub held_out: bool,
}

impl Args {
    /// The seconds the timed window lasts.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

const USAGE: &str =
    "usage: rpwf-perfbench --workload <warm-hit|cold-point|fleet-mixed|fleet-capacity> \
--seed <n> --seconds <s> --trace <0|1> [--held-out]";

/// Seeds are mixed with this salt under `--held-out`, so a claim can be
/// confirmed on traffic no tuning run has seen.
pub const HELD_OUT_SALT: u64 = 0x05EE_D0F4_E1D0;

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut held_out = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--held-out" {
            held_out = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let seed = seed.ok_or("--seed is required")?;
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: if held_out { seed ^ HELD_OUT_SALT } else { seed },
        seconds,
        trace: trace.ok_or("--trace is required")?,
        held_out,
    })
}

/// What a workload run hands back.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: BTreeMap<String, f64>,
    /// The correctness gate: `Err` names the first mismatch.
    pub gate: Result<(), String>,
}

/// How long every core spins before a run sets anything up.
const CPU_WARM_UP: Duration = Duration::from_millis(1500);

/// Keeps every core busy for [`CPU_WARM_UP`]. On a virtual machine that
/// was idle, the first second or so of work can run at half speed; this
/// spends it before anything is timed.
fn warm_cpus(cores: usize) {
    std::thread::scope(|scope| {
        for _ in 0..cores {
            scope.spawn(|| {
                let start = std::time::Instant::now();
                let mut x = 1u64;
                while start.elapsed() < CPU_WARM_UP {
                    for _ in 0..10_000 {
                        x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
                    }
                    std::hint::black_box(x);
                }
            });
        }
    });
}

/// The wall-clock cap of one run: past it the process reports and exits
/// non-zero rather than hang.
const RUN_CAP: Duration = Duration::from_secs(170);

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(RUN_CAP);
        eprintln!("run exceeded its {}s wall-clock cap", RUN_CAP.as_secs());
        std::process::exit(3);
    });
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "workload {} seed {} seconds {} trace {} cores {cores}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    warm_cpus(cores);
    let outcome = match args.workload.as_str() {
        "warm-hit" => warm_hit::run(&args),
        "cold-point" => cold_point::run(&args),
        "fleet-mixed" => fleet_mixed::run(&args),
        "fleet-capacity" => fleet_mixed::capacity(&args),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::from(1);
        }
    };
    let expected: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut fields = Vec::with_capacity(expected.len());
    for (name, unit) in &expected {
        let Some(value) = outcome.metrics.get(name) else {
            eprintln!("bug: metric {name} was not measured");
            return ExitCode::from(1);
        };
        let value = if value.is_finite() { *value } else { -1.0 };
        fields.push(format!(
            "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        ));
    }
    if let Err(e) = &outcome.gate {
        eprintln!("CORRECTNESS GATE FAILED: {e}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.gate.is_ok(),
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(",")
    );
    if outcome.gate.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(4)
    }
}
