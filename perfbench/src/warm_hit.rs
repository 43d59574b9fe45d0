//! `warm-hit`: one node, a pre-warmed pool of ~64 ch/het instances, and
//! a closed loop on 2 connections where every request is a `Solve` with a
//! fresh threshold — so every one is a front-cache hit. Decode, cache
//! lookup and the reactor do all the work; the engine does none.

use crate::check;
use crate::inputs::{ch_or_het, Inst, StreamDigest};
use crate::layers::{self, Spans};
use crate::load::{closed_loop, Sample};
use crate::report::{self, Tally};
use crate::rng::Rng;
use crate::session;
use crate::{Args, Outcome};
use rpwf_algo::Objective;
use rpwf_server::{Server, ServiceConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const POOL: usize = 64;
const CONNS: usize = 2;
const DEADLINE_MS: u64 = 5_000;
/// The latency limit `slo_attainment` counts against.
const SLO_MS: f64 = 1.0;
/// Sessions per run, each on a freshly set-up node.
const SESSIONS: usize = 3;
/// Request indices of session `s` start at `s * SESSION_STRIDE`.
const SESSION_STRIDE: usize = 1 << 24;
const SALT: u64 = 0x003A_5311;

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }
}

/// The k-th request of connection `c`: a pool instance and a fresh
/// threshold, alternating between the two objectives.
fn request(seed: u64, pool: &[Inst], c: usize, k: usize) -> (usize, Objective) {
    let mut rng = Rng::new(seed, SALT + 1 + ((c as u64) << 40) + k as u64);
    let i = rng.int(0, pool.len() - 1);
    (i, pool[i].feasible_bound(k.is_multiple_of(2), rng.unit()))
}

fn line(seed: u64, pool: &[Inst], c: usize, k: usize) -> String {
    let (i, objective) = request(seed, pool, c, k);
    pool[i].threshold_line("Solve", (k * CONNS + c) as u64, DEADLINE_MS, objective)
}

/// One `Solve` per pool instance: what set-up sends to warm the cache.
fn warm_lines(pool: &[Inst]) -> Vec<String> {
    pool.iter()
        .enumerate()
        .map(|(i, inst)| {
            inst.threshold_line("Solve", i as u64, 60_000, inst.feasible_bound(true, 0.5))
        })
        .collect()
}

/// Binds a node and warms every pool instance over 2 connections.
fn set_up(warm: &[String]) -> Result<(Server, f64), String> {
    let start = Instant::now();
    let server = Server::bind("127.0.0.1:0", config()).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let addr = &addr;
                scope.spawn(move || {
                    let mut conn = crate::client::Conn::connect(addr, Duration::from_secs(90))
                        .map_err(|e| format!("connect: {e}"))?;
                    for line in warm.iter().skip(c).step_by(CONNS) {
                        let lines = conn.call(line).map_err(|e| format!("pre-warm: {e}"))?;
                        let response = check::parse(&lines[0])?;
                        if response.status != "ok" {
                            return Err(format!("pre-warm answered {lines:?}"));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pre-warm thread"))
            .collect()
    });
    results.into_iter().collect::<Result<Vec<()>, String>>()?;
    Ok((server, start.elapsed().as_secs_f64()))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut rng = Rng::new(args.seed, SALT);
    let pool: Vec<Inst> = (0..POOL)
        .map(|_| {
            let class = ch_or_het(&mut rng);
            let (n, m) = (rng.int(4, 8), rng.int(4, 8));
            Inst::generate(class, n, m, rng.next_u64())
        })
        .collect();
    let warm = warm_lines(&pool);
    let mut digest = StreamDigest::default();
    for l in &warm {
        digest.add(l);
    }
    for session in 0..SESSIONS {
        for k in 0..1024 {
            for c in 0..CONNS {
                digest.add(&line(args.seed, &pool, c, session * SESSION_STRIDE + k));
            }
        }
    }
    println!("  request stream digest {}", digest.render());

    let make = |c: usize, k: usize| line(args.seed, &pool, c, k);
    let run = session::run(
        |n, _| n < SESSIONS,
        args.trace,
        || {
            let (server, secs) = set_up(&warm)?;
            let addr = server.local_addr().to_string();
            Ok((server, vec![addr], secs))
        },
        |session, addrs| {
            let next_k: Vec<AtomicUsize> = (0..CONNS)
                .map(|_| AtomicUsize::new(session * SESSION_STRIDE))
                .collect();
            closed_loop(
                addrs,
                CONNS,
                args.window() / SESSIONS as u32,
                Duration::from_millis(DEADLINE_MS + 5_000),
                args.trace,
                &|c| {
                    let k = next_k[c].fetch_add(1, Ordering::Relaxed);
                    Some((k, make(c, k)))
                },
            )
        },
    )?;
    let out = run.out;

    let tally = Tally::of(&out.samples, SLO_MS, |sample: &Sample, response| {
        let (i, objective) = request(args.seed, &pool, sample.conn, sample.index);
        if !response.meta.cache_hit {
            return Err(format!(
                "{}: warm-hit answer was not a cache hit",
                pool[i].label
            ));
        }
        check::solve_answer(&pool[i], objective, response).map(drop)
    });
    println!(
        "warm-hit, closed loop on {CONNS} connections over {POOL} pre-warmed instances, {SESSIONS} sessions:"
    );
    let mut metrics = tally.end_to_end(out.window_s, SLO_MS, &run.setups, None);
    if let Some(observed) = run.observed {
        report::print_client_spans(&out.spans);
        metrics = layer_metrics(args, &pool, &warm, &out.samples, &tally, &observed);
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed(),
        metrics,
        gate: tally.gate,
    })
}

fn layer_metrics(
    args: &Args,
    pool: &[Inst],
    warm: &[String],
    samples: &[Sample],
    tally: &Tally,
    observed: &session::Observed,
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    report::counter_layers(observed, samples.len() as f64, &mut m);
    report::overhead(tally, &mut m);
    let mut spans = Spans::new();
    let requests: Vec<String> = (0..1000)
        .map(|k| line(args.seed, pool, k % CONNS, k / CONNS))
        .collect();
    let responses: Vec<String> = samples
        .iter()
        .take(2000)
        .flat_map(|s| s.lines.clone())
        .collect();
    layers::protocol(&mut spans, &requests, &responses, &mut m);
    layers::hash(&mut spans, &pool.iter().collect::<Vec<_>>(), &mut m);
    let client_p50_us = crate::stats::median(&tally.untraced_ms) * 1e3;
    layers::service(
        &mut spans,
        &config(),
        warm,
        &requests,
        Duration::from_secs(2),
        client_p50_us,
        &mut m,
    );
    let engine = rpwf_algo::Engine::with_parallel_backends(
        config().seed,
        config().effective_solver_threads(),
    );
    let queries: Vec<(&Inst, Objective)> = (0..POOL)
        .map(|k| {
            let (i, objective) = request(args.seed, pool, 0, k);
            (&pool[i], objective)
        })
        .collect();
    layers::engine(
        &mut spans,
        &engine,
        &queries,
        &[false, true],
        Duration::from_secs(2),
        &mut m,
    );
    m.insert("peer.hop_us".into(), 0.0);
    m.insert("bench.generator_lag_ms".into(), 0.0);
    spans.print_summary();
    m
}
