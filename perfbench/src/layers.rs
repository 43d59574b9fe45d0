//! Per-layer timings taken in-process, outside the timed window, by
//! recording spans in the benchmark's own code around calls into each
//! layer's public functions: `protocol` decode/encode, `hash`,
//! `service` and `engine`.

use crate::check::point_solve;
use crate::inputs::Inst;
use crate::stats::{mean, quantile};
use rpwf_algo::engine::Engine;
use rpwf_algo::Objective;
use rpwf_server::protocol::Request;
use rpwf_server::{Response, ServiceConfig, SolverService};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Span durations (µs) per span name, kept in memory and summarised when
/// the run ends.
pub struct Spans(BTreeMap<&'static str, Vec<f64>>);

impl Spans {
    pub fn new() -> Spans {
        Spans(BTreeMap::new())
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let dur_us = start.elapsed().as_secs_f64() * 1e6;
        self.0.entry(name).or_default().push(dur_us);
        out
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.0.get(name).cloned().unwrap_or_default()
    }

    /// Prints count, p50, p99 and total per span name.
    pub fn print_summary(&self) {
        println!("  spans (name: count, p50 us, p99 us, total us):");
        for (name, d) in &self.0 {
            println!(
                "    {name}: {} calls, p50 {:.2}, p99 {:.2}, total {:.0}",
                d.len(),
                quantile(d, 0.5),
                quantile(d, 0.99),
                d.iter().sum::<f64>()
            );
        }
    }
}

/// Repetitions per span for calls too short to time one at a time.
const SHORT_REPS: u32 = 16;

/// `protocol`: decode (`serde_json::from_str::<Request>`) over request
/// lines and encode (`Response::to_line`) over response lines, as
/// per-call p50s, plus the mean sizes.
pub fn protocol(
    spans: &mut Spans,
    requests: &[String],
    responses: &[String],
    m: &mut BTreeMap<String, f64>,
) {
    for line in requests {
        spans.time("protocol.decode", || {
            black_box(
                serde_json::from_str::<Request>(black_box(line)).expect("request lines decode"),
            )
        });
    }
    let parsed: Vec<Response> = responses
        .iter()
        .map(|l| serde_json::from_str(l).expect("response lines decode"))
        .collect();
    for response in &parsed {
        spans.time("protocol.encode", || {
            black_box(black_box(response).to_line())
        });
    }
    m.insert(
        "protocol.decode_us".into(),
        quantile(&spans.durations("protocol.decode"), 0.5),
    );
    m.insert(
        "protocol.encode_us".into(),
        quantile(&spans.durations("protocol.encode"), 0.5),
    );
    let bytes = |lines: &[String]| {
        mean(
            &lines
                .iter()
                .map(|l| l.len() as f64 + 1.0)
                .collect::<Vec<_>>(),
        )
    };
    m.insert("protocol.request_bytes".into(), bytes(requests));
    m.insert("protocol.response_bytes".into(), bytes(responses));
}

/// `hash`: `rpwf_core::hash::instance_key` per instance (each span
/// covers [`SHORT_REPS`] calls).
pub fn hash(spans: &mut Spans, insts: &[&Inst], m: &mut BTreeMap<String, f64>) {
    for inst in insts {
        spans.time("hash.instance_key", || {
            for _ in 0..SHORT_REPS {
                black_box(rpwf_core::hash::instance_key(
                    black_box(&inst.pipeline),
                    black_box(&inst.platform),
                ));
            }
        });
    }
    m.insert(
        "hash.instance_key_us".into(),
        quantile(&spans.durations("hash.instance_key"), 0.5) / f64::from(SHORT_REPS),
    );
}

/// `service`: `SolverService::handle_line` in-process with no socket,
/// on a service built with the server's config and warmed with `warm`,
/// replaying `lines` for at most `budget`. `client_p50_us` is the
/// client-observed p50 of the same workload; the difference is the
/// transport's share (reactor, admission, socket).
pub fn service(
    spans: &mut Spans,
    config: &ServiceConfig,
    warm: &[String],
    lines: &[String],
    budget: Duration,
    client_p50_us: f64,
    m: &mut BTreeMap<String, f64>,
) {
    let service = SolverService::new(config.clone());
    for line in warm {
        black_box(service.handle_line(line, Instant::now()));
    }
    let start = Instant::now();
    for line in lines {
        if start.elapsed() > budget {
            break;
        }
        spans.time("service.handle_line", || {
            black_box(service.handle_line(line, Instant::now()))
        });
    }
    let d = spans.durations("service.handle_line");
    let p50 = quantile(&d, 0.5);
    println!(
        "  service.handle_line replayed {} of {} lines",
        d.len(),
        lines.len()
    );
    m.insert("service.handle_us_p50".into(), p50);
    m.insert("service.handle_us_p99".into(), quantile(&d, 0.99));
    m.insert("transport.overhead_us".into(), client_p50_us - p50);
}

/// `engine`: direct `Engine::solve` point requests on the workload's
/// instances, as the per-threshold race (`keep_front: false`) and as the
/// front read the server runs today (`keep_front: true`), each variant in
/// `keep_front` for at most `budget`.
pub fn engine(
    spans: &mut Spans,
    engine: &Engine,
    queries: &[(&Inst, Objective)],
    keep_front: &[bool],
    budget: Duration,
    m: &mut BTreeMap<String, f64>,
) {
    for &keep_front in keep_front {
        let (span, metric) = if keep_front {
            ("engine.point_front", "engine.point_front_ms")
        } else {
            ("engine.point_race", "engine.point_race_ms")
        };
        let start = Instant::now();
        for &(inst, objective) in queries {
            if start.elapsed() > budget {
                break;
            }
            spans.time(span, || {
                black_box(point_solve(engine, inst, objective, keep_front))
            });
        }
        let d = spans.durations(span);
        println!("  {span}: {} instances", d.len());
        m.insert(format!("{metric}_p50"), quantile(&d, 0.5) / 1e3);
        m.insert(format!("{metric}_p90"), quantile(&d, 0.9) / 1e3);
    }
}
