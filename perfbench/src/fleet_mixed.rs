//! `fleet-mixed`: a 3-node in-process ring fleet (replicas 2) under an
//! open loop on a seeded Poisson schedule, entering at nodes 0 and 1.
//! Zipf-skewed draws from a pool larger than the fleet's cache keep a
//! steady cold share; the mix is ~80% `Solve`, ~15% chunked `Pareto` and
//! ~5% `Explain` on infeasible bounds over small instances.
//!
//! `fleet-capacity` drives the same fleet with the same mix closed loop on
//! the same two connections, with many requests in flight on each: its
//! throughput is the fleet's capacity, the figure the open loop's offered
//! rate must stay well below.

use crate::check;
use crate::inputs::{Inst, StreamDigest};
use crate::layers::{self, Spans};
use crate::load::{open_loop, windowed_loop, Planned, Sample};
use crate::report::{self, Tally};
use crate::rng::{Rng, Zipf};
use crate::session;
use crate::stats::{median, quantile};
use crate::{Args, Outcome};
use rpwf_algo::engine::Engine;
use rpwf_algo::Objective;
use rpwf_core::platform::PlatformClass;
use rpwf_server::{RingOptions, Server, ServiceConfig, ServingOptions};
use std::collections::{BTreeMap, HashMap};
use std::net::TcpListener;
use std::time::{Duration, Instant};

const NODES: usize = 3;
const CONNS: usize = 2;
/// Offered load, requests per second. `fleet-capacity` measures what the
/// fleet sustains on the same mix (DESIGN.md records it); this rate is a
/// small share of that.
const RATE: f64 = 40.0;
/// Solve/Pareto pool: four instances of each of the 24 ch/het × n 4–7 ×
/// m 4–6 size classes. Larger than the fleet's cache holds, so evictions
/// and re-solves go on through the run.
const POOL: usize = 96;
/// Explain pool: one ch instance of each size within n 3–5, m 4–6 (the
/// size limit; see DESIGN.md, known defects).
const EXPLAIN_POOL: usize = 9;
const ZIPF_S: f64 = 1.1;
/// Front-cache entries per node (one shard, so the bound is exact).
const CACHE_PER_NODE: usize = 48;
const CHUNK: usize = 4;
const DEADLINE_MS: u64 = 30_000;
const EXPLAIN_DEADLINE_MS: u64 = 60_000;
/// The latency limit `slo_attainment` counts against.
const SLO_MS: f64 = 100.0;
/// A run whose sender ran later than this at p99 is invalid, not slow.
const LAG_BOUND_MS: f64 = 20.0;
/// Hottest instances solved after set-up, before the window opens.
const PRELOAD: usize = 8;
/// Sessions per run, each on a freshly formed fleet; the schedule is cut
/// into one slice per session.
const SESSIONS: usize = 3;
/// Requests `fleet-capacity` keeps in flight per connection: 64 in all,
/// enough that the fleet, not the client, sets the pace (fewer in flight
/// measure the latency of a lost wake-up as much as the fleet's work;
/// see DESIGN.md).
const CAPACITY_DEPTH: usize = 32;
const SALT: u64 = 0xF1EE_7000;
/// The explain instances come from this salt alone, so every seed's
/// set-up explains the same instances (the seed still picks which are
/// hot and on which axis each query is).
const EXPLAIN_SALT: u64 = 0xF1EE_E000;
const CAPACITY_SALT: u64 = 0xF1EE_CA00;

#[derive(Clone, Copy)]
enum Kind {
    Solve(usize, Objective),
    Pareto(usize),
    Explain(usize),
}

fn config(node_id: String) -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        cache_capacity: CACHE_PER_NODE,
        cache_shards: 1,
        node_id: Some(node_id),
        ..ServiceConfig::default()
    }
}

/// One event thread per node: three nodes share two cores.
fn serving() -> ServingOptions {
    ServingOptions {
        event_threads: 1,
        ..ServingOptions::default()
    }
}

/// The instances requests are drawn from, in the seed's hotness order.
struct Pools {
    pool: Vec<Inst>,
    explain: Vec<Inst>,
    hot: Zipf,
    hot_explain: Zipf,
}

impl Pools {
    fn new(seed: u64) -> Pools {
        let mut rng = Rng::new(seed, SALT);
        // Every size class appears the same number of times in every
        // seed's pool; the seed picks the instances and which are hot.
        let mut pool = Vec::with_capacity(POOL);
        for class in [
            PlatformClass::CommHomogeneous,
            PlatformClass::FullyHeterogeneous,
        ] {
            for n in 4..=7 {
                for m in 4..=6 {
                    for _ in 0..POOL / 24 {
                        pool.push(Inst::generate(class, n, m, rng.next_u64()));
                    }
                }
            }
        }
        let mut fixed = Rng::new(0, EXPLAIN_SALT);
        let mut explain = Vec::with_capacity(EXPLAIN_POOL);
        for n in 3..=5 {
            for m in 4..=6 {
                explain.push(Inst::generate(
                    PlatformClass::CommHomogeneous,
                    n,
                    m,
                    fixed.next_u64(),
                ));
            }
        }
        rng.shuffle(&mut pool);
        rng.shuffle(&mut explain);
        Pools {
            pool,
            explain,
            hot: Zipf::new(POOL, ZIPF_S),
            hot_explain: Zipf::new(EXPLAIN_POOL, ZIPF_S),
        }
    }

    /// One request of the mix, with id `id`.
    fn draw(&self, rng: &mut Rng, id: usize) -> (Kind, String) {
        let u = rng.unit();
        if u < 0.80 {
            let i = self.hot.sample(rng);
            let objective = self.pool[i].feasible_bound(rng.coin(), rng.unit());
            let line = self.pool[i].threshold_line("Solve", id as u64, DEADLINE_MS, objective);
            (Kind::Solve(i, objective), line)
        } else if u < 0.95 {
            let i = self.hot.sample(rng);
            (
                Kind::Pareto(i),
                self.pool[i].pareto_line(id as u64, DEADLINE_MS, CHUNK),
            )
        } else {
            let i = self.hot_explain.sample(rng);
            let objective = self.explain[i].infeasible_bound(rng.coin());
            let line = self.explain[i].threshold_line(
                "Explain",
                id as u64,
                EXPLAIN_DEADLINE_MS,
                objective,
            );
            (Kind::Explain(i), line)
        }
    }
}

/// The open-loop traffic: the kind of every request, indexed by id, and
/// one schedule per session, due times from the session's start.
fn schedule(args: &Args, pools: &Pools) -> (Vec<Kind>, Vec<Vec<Planned>>) {
    let mut rng = Rng::new(args.seed, SALT + 1);
    let mut kinds = Vec::new();
    let session_s = args.seconds / SESSIONS as f64;
    let mut schedule: Vec<Vec<Planned>> = (0..SESSIONS).map(|_| Vec::new()).collect();
    let mut due = rng.exp(RATE);
    while due < args.seconds {
        let id = kinds.len();
        let (kind, line) = pools.draw(&mut rng, id);
        kinds.push(kind);
        let session = ((due / session_s) as usize).min(SESSIONS - 1);
        schedule[session].push(Planned {
            id,
            due_s: due - session as f64 * session_s,
            conn: rng.int(0, CONNS - 1),
            line,
        });
        due += rng.exp(RATE);
    }
    (kinds, schedule)
}

/// Checks answers outside the timed window: Solves re-evaluated, Pareto
/// streams against the one-shot front (memoized per instance), Explains
/// proven.
struct Checker<'a> {
    pools: &'a Pools,
    engine: Engine,
    fronts: HashMap<usize, check::Front>,
}

impl Checker<'_> {
    fn new(pools: &Pools) -> Checker<'_> {
        let reference = config(String::new());
        Checker {
            pools,
            engine: Engine::with_parallel_backends(
                reference.seed,
                reference.effective_solver_threads(),
            ),
            fronts: HashMap::new(),
        }
    }

    fn check(
        &mut self,
        kind: Kind,
        sample: &Sample,
        response: &rpwf_server::Response,
    ) -> Result<(), String> {
        let pools = self.pools;
        match kind {
            Kind::Solve(i, objective) => {
                check::solve_answer(&pools.pool[i], objective, response).map(drop)
            }
            Kind::Pareto(i) => {
                let engine = &self.engine;
                let front = self
                    .fronts
                    .entry(i)
                    .or_insert_with(|| check::one_shot_front(engine, &pools.pool[i]));
                check::pareto_stream(front, &pools.pool[i], &sample.lines)
            }
            Kind::Explain(i) => check::explain_answer(&pools.explain[i], response),
        }
    }
}

fn reserve_addrs() -> Result<Vec<String>, String> {
    let listeners: Vec<TcpListener> = (0..NODES)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("reserve port: {e}")))
        .collect::<Result<_, _>>()?;
    listeners
        .iter()
        .map(|l| {
            l.local_addr()
                .map(|a| a.to_string())
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Forms the fleet and, through node 0, explains every explain instance
/// once: that is the timed set-up. Then, untimed, it solves the seed's
/// hottest pool instances, so every session's window opens on the same
/// warm start.
fn set_up(pools: &Pools) -> Result<(Vec<Server>, Vec<String>, f64), String> {
    let start = Instant::now();
    let addrs = reserve_addrs()?;
    let nodes = addrs
        .iter()
        .map(|addr| {
            let peers: Vec<String> = addrs.iter().filter(|a| *a != addr).cloned().collect();
            let options = RingOptions {
                replicas: 2,
                ..RingOptions::default()
            };
            Server::bind_ring_tuned(addr, config(addr.clone()), &peers, options, serving())
                .map_err(|e| format!("bind {addr}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let formed = start.elapsed().as_secs_f64();
    let mut conn = crate::client::Conn::connect(&addrs[0], Duration::from_secs(60))
        .map_err(|e| format!("connect: {e}"))?;
    let mut call = |line: String, step: &str| -> Result<(), String> {
        let lines = conn.call(&line).map_err(|e| format!("{step}: {e}"))?;
        if check::parse(&lines[0])?.status != "ok" {
            return Err(format!("{step} answered {lines:?}"));
        }
        Ok(())
    };
    for inst in &pools.explain {
        let objective = inst.infeasible_bound(true);
        call(
            inst.threshold_line("Explain", 0, EXPLAIN_DEADLINE_MS, objective),
            "set-up",
        )?;
    }
    let secs = start.elapsed().as_secs_f64();
    for inst in pools.pool.iter().take(PRELOAD) {
        let objective = inst.feasible_bound(true, 0.5);
        call(
            inst.threshold_line("Solve", 0, DEADLINE_MS, objective),
            "preload",
        )?;
    }
    println!(
        "  set-up {secs:.3} s: formation {formed:.3} s, explains {:.3} s; untimed preload {:.3} s",
        secs - formed,
        start.elapsed().as_secs_f64() - secs
    );
    Ok((nodes, addrs, secs))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let pools = Pools::new(args.seed);
    let (kinds, schedule) = schedule(args, &pools);
    let mut digest = StreamDigest::default();
    for planned in schedule.iter().flatten() {
        digest.add(&planned.line);
    }
    println!("  request stream digest {}", digest.render());

    let grace = Duration::from_millis(EXPLAIN_DEADLINE_MS + 5_000);
    // The node each request entered at, by request id.
    let mut entry_of: HashMap<usize, String> = HashMap::new();
    let run = session::run(
        |n, _| n < SESSIONS,
        args.trace,
        || set_up(&pools),
        |session, addrs| {
            let out = open_loop(
                &addrs[..CONNS],
                CONNS,
                &schedule[session],
                args.window() / SESSIONS as u32,
                grace,
                args.trace,
            )?;
            for sample in &out.samples {
                entry_of.insert(sample.index, addrs[sample.conn].clone());
            }
            Ok(out)
        },
    )?;
    let out = run.out;

    let lag_p99 = quantile(&out.lag_ms, 0.99);
    println!(
        "  generator lag p50 {:.3} ms, p99 {lag_p99:.3} ms, max {:.3} ms over {} sends",
        median(&out.lag_ms),
        out.lag_ms.iter().copied().fold(0.0, f64::max),
        out.lag_ms.len()
    );

    let mut checker = Checker::new(&pools);
    let tally = Tally::of(&out.samples, SLO_MS, |sample: &Sample, response| {
        checker.check(kinds[sample.index], sample, response)
    });
    let mut gate = tally.gate.clone();
    if gate.is_ok() && lag_p99 > LAG_BOUND_MS {
        gate = Err(format!(
            "run invalid: the open-loop sender lagged {lag_p99:.1} ms at p99 (bound {LAG_BOUND_MS} ms)"
        ));
    }
    println!(
        "fleet-mixed, open loop at {RATE} req/s over {CONNS} entry nodes of a {NODES}-node ring ({} sent: {} Solve, {} Pareto, {} Explain):",
        kinds.len(),
        kinds.iter().filter(|k| matches!(k, Kind::Solve(..))).count(),
        kinds.iter().filter(|k| matches!(k, Kind::Pareto(..))).count(),
        kinds.iter().filter(|k| matches!(k, Kind::Explain(..))).count(),
    );
    println!("  (open loop: throughput_rps is the offered rate unless requests fail)");
    let mut metrics = tally.end_to_end(out.window_s, SLO_MS, &run.setups, None);
    if let Some(observed) = run.observed {
        let mut m = BTreeMap::new();
        report::counter_layers(&observed, kinds.len() as f64, &mut m);
        for (name, failed) in [
            ("peer.forward_failures", m["peer.forward_failures"]),
            ("ring.failovers", m["ring.failovers"]),
        ] {
            if failed != 0.0 && gate.is_ok() {
                gate = Err(format!("{name} = {failed} on a healthy fleet"));
            }
        }
        report::overhead(&tally, &mut m);
        report::print_client_spans(&out.spans);
        m.insert("bench.generator_lag_ms".into(), lag_p99);
        m.insert(
            "peer.hop_us".into(),
            hop_us(&out.samples, &kinds, &entry_of),
        );
        let mut spans = Spans::new();
        let requests: Vec<String> = schedule[0]
            .iter()
            .take(400)
            .map(|p| p.line.clone())
            .collect();
        let responses: Vec<String> = out.samples.iter().flat_map(|s| s.lines.clone()).collect();
        layers::protocol(&mut spans, &requests, &responses, &mut m);
        layers::hash(
            &mut spans,
            &pools.pool.iter().chain(&pools.explain).collect::<Vec<_>>(),
            &mut m,
        );
        let client_p50_us = median(&tally.untraced_ms) * 1e3;
        let single = ServiceConfig {
            node_id: None,
            ..config(String::new())
        };
        layers::service(
            &mut spans,
            &single,
            &[],
            &requests,
            Duration::from_secs(2),
            client_p50_us,
            &mut m,
        );
        let queries: Vec<(&Inst, Objective)> = kinds
            .iter()
            .filter_map(|k| match *k {
                Kind::Solve(i, objective) => Some((&pools.pool[i], objective)),
                _ => None,
            })
            .collect();
        layers::engine(
            &mut spans,
            &checker.engine,
            &queries,
            &[false, true],
            Duration::from_secs(2),
            &mut m,
        );
        spans.print_summary();
        metrics = m;
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed(),
        metrics,
        gate,
    })
}

/// `fleet-capacity`: the `fleet-mixed` fleet, set-up and mix, driven
/// closed loop on the same two entry connections. It reports the
/// end-to-end metrics only; its `throughput_rps` is the capacity the
/// open loop's rate is set against.
pub fn capacity(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return Err("fleet-capacity has no --trace 1 run".into());
    }
    let pools = Pools::new(args.seed);
    // Request k of connection c in session s has id (s * 2^24 + k) * CONNS + c.
    let request = |id: usize| {
        let mut rng = Rng::new(args.seed, CAPACITY_SALT + id as u64);
        pools.draw(&mut rng, id)
    };
    let run = session::run(
        |n, _| n < SESSIONS,
        false,
        || set_up(&pools),
        |session, addrs| {
            let make = |c: usize, k: usize| {
                let id = ((session << 24) + k) * CONNS + c;
                (id, request(id).1)
            };
            let mut out = windowed_loop(
                &addrs[..CONNS],
                CONNS,
                CAPACITY_DEPTH,
                args.window() / SESSIONS as u32,
                Duration::from_millis(EXPLAIN_DEADLINE_MS + 5_000),
                &make,
            )?;
            for sample in &mut out.samples {
                sample.index = ((session << 24) + sample.index) * CONNS + sample.conn;
            }
            Ok(out)
        },
    )?;
    let mut checker = Checker::new(&pools);
    let tally = Tally::of(&run.out.samples, SLO_MS, |sample: &Sample, response| {
        checker.check(request(sample.index).0, sample, response)
    });
    println!(
        "fleet-capacity, closed loop with {CAPACITY_DEPTH} in flight on each of {CONNS} entry nodes of a {NODES}-node ring, the fleet-mixed mix:"
    );
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed(),
        metrics: tally.end_to_end(run.out.window_s, SLO_MS, &run.setups, None),
        gate: tally.gate,
    })
}

/// p50 warm `Solve` latency entering at a non-owner minus entering at
/// the owner, told apart by `meta.node`, in µs.
fn hop_us(samples: &[Sample], kinds: &[Kind], entry_of: &HashMap<usize, String>) -> f64 {
    let (mut owner, mut hop) = (Vec::new(), Vec::new());
    for sample in samples {
        if !matches!(kinds[sample.index], Kind::Solve(..)) {
            continue;
        }
        let Some(Ok(response)) = sample.lines.last().map(|l| check::parse(l)) else {
            continue;
        };
        if response.status != "ok" || !response.meta.cache_hit {
            continue;
        }
        if response.meta.node.as_ref() == entry_of.get(&sample.index) {
            owner.push(sample.latency_us);
        } else {
            hop.push(sample.latency_us);
        }
    }
    println!(
        "  warm Solve p50: {:.1} us entering at the owner (n={}), {:.1} us through a peer hop (n={})",
        median(&owner),
        owner.len(),
        median(&hop),
        hop.len()
    );
    median(&hop) - median(&owner)
}
