//! `cold-point`: one node, a closed loop on 2 connections where every
//! request is a `Solve` on a het n=6 m=8 instance the node has never
//! seen. Bounds alternate between the two objectives and lie between the
//! instance's single-criterion optima, so every query is feasible. The
//! engine is nearly all of the time; decode is a rounding error.
//!
//! A run is a series of sessions, each on a freshly set-up node, until
//! the window is spent. A session sends every instance of a fixed pool
//! once, in a seeded order and with seeded bounds, the two connections
//! taking the next request from one shared queue. Every session thus does
//! the same engine work, so `throughput_rps`, the median of the sessions'
//! throughputs, does not depend on which instances a seed happened to
//! draw.

use crate::check;
use crate::inputs::{Inst, StreamDigest};
use crate::layers::{self, Spans};
use crate::load::{closed_loop, Sample};
use crate::report::{self, Tally};
use crate::rng::Rng;
use crate::session;
use crate::{Args, Outcome, HELD_OUT_SALT};
use rpwf_algo::Objective;
use rpwf_core::platform::PlatformClass;
use rpwf_server::{Server, ServiceConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const CONNS: usize = 2;
const DEADLINE_MS: u64 = 30_000;
/// The latency limit `slo_attainment` counts against.
const SLO_MS: f64 = 250.0;
/// Instances a session sends, each once. Request `index` is slot
/// `index % POOL` of session `index / POOL`.
const POOL: usize = 64;
/// Sessions whose lines the printed digest covers.
const DIGEST_SESSIONS: usize = 4;
/// Instances solved by set-up to load code and warm the allocator; the
/// same for every seed, so set-up time does not depend on it.
const WARMUP_INSTANCES: usize = 4;
const SALT: u64 = 0xC01D_9017;
const WARMUP_SALT: u64 = 0xC01D_0000;
/// Gen seeds of the pool start here (mixed with the held-out salt under
/// `--held-out`).
const POOL_SALT: u64 = 0xC01D_1000;

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }
}

fn instance(gen_seed: u64) -> Inst {
    Inst::generate(PlatformClass::FullyHeterogeneous, 6, 8, gen_seed)
}

fn pool(held_out: bool) -> Vec<Inst> {
    let salt = if held_out { HELD_OUT_SALT } else { 0 };
    (0..POOL)
        .map(|i| instance((POOL_SALT + i as u64) ^ salt))
        .collect()
}

/// Request `index`: the pool instance its session's seeded order puts in
/// its slot, and a bound on the objective the slot's parity selects.
fn request(seed: u64, pool: &[Inst], index: usize) -> (&Inst, Objective) {
    let (session, slot) = (index / POOL, index % POOL);
    let mut order: Vec<usize> = (0..POOL).collect();
    Rng::new(seed, SALT + ((session as u64) << 32)).shuffle(&mut order);
    let inst = &pool[order[slot]];
    let t = Rng::new(seed, SALT + 1 + index as u64).unit();
    (inst, inst.feasible_bound(slot.is_multiple_of(2), t))
}

/// Session `session`'s requests as indices and lines, in sending order.
fn session_lines(seed: u64, pool: &[Inst], session: usize) -> Vec<(usize, String)> {
    (session * POOL..(session + 1) * POOL)
        .map(|index| {
            let (inst, objective) = request(seed, pool, index);
            (
                index,
                inst.threshold_line("Solve", index as u64, DEADLINE_MS, objective),
            )
        })
        .collect()
}

/// Binds a node and solves the warm-up instances on it.
fn set_up(warmup: &[String]) -> Result<(Server, f64), String> {
    let start = Instant::now();
    let server = Server::bind("127.0.0.1:0", config()).map_err(|e| format!("bind: {e}"))?;
    let mut conn =
        crate::client::Conn::connect(&server.local_addr().to_string(), Duration::from_secs(60))
            .map_err(|e| format!("connect: {e}"))?;
    for line in warmup {
        let lines = conn.call(line).map_err(|e| format!("warm-up: {e}"))?;
        if check::parse(&lines[0])?.status != "ok" {
            return Err(format!("warm-up answered {lines:?}"));
        }
    }
    Ok((server, start.elapsed().as_secs_f64()))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let warmup: Vec<String> = (0..WARMUP_INSTANCES)
        .map(|i| {
            let inst = instance(WARMUP_SALT + i as u64);
            inst.threshold_line(
                "Solve",
                i as u64,
                DEADLINE_MS,
                inst.feasible_bound(i % 2 == 0, 0.5),
            )
        })
        .collect();
    let pool = pool(args.held_out);
    let mut digest = StreamDigest::default();
    for session in 0..DIGEST_SESSIONS {
        for (_, line) in session_lines(args.seed, &pool, session) {
            digest.add(&line);
        }
    }
    println!(
        "  request stream digest {} (the first {DIGEST_SESSIONS} sessions)",
        digest.render()
    );

    let run = session::run(
        |n, window_s| n == 0 || window_s < args.seconds,
        args.trace,
        || {
            let (server, secs) = set_up(&warmup)?;
            let addr = server.local_addr().to_string();
            Ok((server, vec![addr], secs))
        },
        |session, addrs| {
            let lines = session_lines(args.seed, &pool, session);
            let next = AtomicUsize::new(0);
            closed_loop(
                addrs,
                CONNS,
                Duration::MAX,
                Duration::from_millis(DEADLINE_MS + 5_000),
                args.trace,
                &|_| lines.get(next.fetch_add(1, Ordering::Relaxed)).cloned(),
            )
        },
    )?;
    let out = run.out;

    // Outside the timed window: every answer against the direct point
    // race on the same instance.
    let engine = rpwf_algo::Engine::with_parallel_backends(
        config().seed,
        config().effective_solver_threads(),
    );
    let mut spans = Spans::new();
    let tally = Tally::of(&out.samples, SLO_MS, |sample: &Sample, response| {
        let (inst, objective) = request(args.seed, &pool, sample.index);
        if response.meta.cache_hit {
            return Err(format!(
                "{}: a never-seen instance was a cache hit",
                inst.label
            ));
        }
        let served = check::solve_answer(inst, objective, response)?;
        let race = spans.time("engine.point_race", || {
            check::point_solve(&engine, inst, objective, false)
        });
        check::equals_race(inst, &served, race.as_ref())
    });
    println!(
        "cold-point, closed loop on {CONNS} connections, {} sessions each over the same {POOL} never-seen het n=6 m=8 instances:",
        run.windows.len()
    );
    let per_session = tally.session_throughputs(&run.windows, |index| index / POOL);
    let mut metrics = tally.end_to_end(out.window_s, SLO_MS, &run.setups, Some(&per_session));
    if let Some(observed) = run.observed {
        let mut m = BTreeMap::new();
        report::counter_layers(&observed, out.samples.len() as f64, &mut m);
        report::overhead(&tally, &mut m);
        report::print_client_spans(&out.spans);
        let sent: Vec<usize> = out.samples.iter().map(|s| s.index).collect();
        let requests: Vec<String> = (0..)
            .flat_map(|session| session_lines(args.seed, &pool, session))
            .map(|(_, line)| line)
            .take(200)
            .collect();
        let responses: Vec<String> = out.samples.iter().flat_map(|s| s.lines.clone()).collect();
        layers::protocol(&mut spans, &requests, &responses, &mut m);
        let insts: Vec<(&Inst, Objective)> = sent
            .iter()
            .take(POOL)
            .map(|&index| request(args.seed, &pool, index))
            .collect();
        layers::hash(
            &mut spans,
            &insts.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            &mut m,
        );
        let client_p50_us = crate::stats::median(&tally.untraced_ms) * 1e3;
        layers::service(
            &mut spans,
            &config(),
            &[],
            &requests,
            Duration::from_secs(2),
            client_p50_us,
            &mut m,
        );
        // The race was timed by the gate over every answered instance;
        // the front read the server runs today is timed here.
        let race = spans.durations("engine.point_race");
        m.insert(
            "engine.point_race_ms_p50".into(),
            crate::stats::quantile(&race, 0.5) / 1e3,
        );
        m.insert(
            "engine.point_race_ms_p90".into(),
            crate::stats::quantile(&race, 0.9) / 1e3,
        );
        layers::engine(
            &mut spans,
            &engine,
            &insts,
            &[true],
            Duration::from_secs(2),
            &mut m,
        );
        m.insert("peer.hop_us".into(), 0.0);
        m.insert("bench.generator_lag_ms".into(), 0.0);
        spans.print_summary();
        metrics = m;
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed(),
        metrics,
        gate: tally.gate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_session_sends_each_pool_instance_once() {
        let pool = pool(false);
        for session in 0..3 {
            let sent: BTreeSet<*const Inst> = (session * POOL..(session + 1) * POOL)
                .map(|index| std::ptr::from_ref(request(5, &pool, index).0))
                .collect();
            assert_eq!(sent.len(), POOL);
        }
        let first = |seed| request(seed, &pool, 0).0.label.clone();
        assert_eq!(first(5), first(5));
    }
}
