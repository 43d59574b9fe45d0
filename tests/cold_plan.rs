//! The cold `Solve` plan: where the exact front is a sweep of point
//! searches (`bnb-sweep`, het m 7–12), the first ask on an instance is
//! answered by the point race and leaves only a `Seen` marker, the second
//! ask builds and caches the front, and every front build is
//! single-flight per instance key. Where the front backend is itself a
//! point solver (`bitmask-dp` on comm-homogeneous platforms), the first
//! ask builds the front, as before.

use rpwf::prelude::*;
use rpwf_algo::engine::{Engine, SolveRequest, Want};
use rpwf_core::budget::Budget;
use rpwf_server::protocol::{Command, Request, Response};
use rpwf_server::{ServiceConfig, SolverService};
use std::time::Instant;

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }
}

/// The engine the service runs, built the same way.
fn engine() -> Engine {
    let config = config();
    Engine::with_parallel_backends(config.seed, config.effective_solver_threads())
}

fn het(seed: u64) -> rpwf_gen::Instance {
    rpwf_gen::make_instance(
        PlatformClass::FullyHeterogeneous,
        FailureClass::Heterogeneous,
        6,
        8,
        seed,
    )
}

fn request(id: u64, cmd: Command) -> Request {
    Request {
        id: Some(id),
        deadline_ms: None,
        no_cache: None,
        hop: None,
        trace: None,
        trace_ctx: None,
        explain: None,
        cmd,
    }
}

fn solve(inst: &rpwf_gen::Instance, objective: Objective) -> Command {
    Command::Solve {
        pipeline: inst.pipeline.clone(),
        platform: inst.platform.clone(),
        objective,
    }
}

fn pareto(inst: &rpwf_gen::Instance) -> Command {
    Command::Pareto {
        pipeline: inst.pipeline.clone(),
        platform: inst.platform.clone(),
        chunk: None,
    }
}

/// The value of one series in the service's Prometheus dump.
fn metric(svc: &SolverService, series: &str) -> u64 {
    let dump = svc.render_metrics();
    dump.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("{series} missing from\n{dump}"))
        .parse()
        .expect("integer series")
}

fn sweeps(svc: &SolverService) -> u64 {
    metric(svc, "rpwf_engine_solver_calls_total{solver=\"bnb-sweep\"}")
}

/// `(mapping, latency bits, failure bits)` of an ok `Solve` response.
fn answer_of(resp: &Response) -> (String, u64, u64) {
    assert_eq!(resp.status, "ok", "{:?}", resp.error);
    let result = resp.result.as_ref().expect("result payload");
    let float = |field: &str| {
        result
            .get(field)
            .and_then(serde::Value::as_f64)
            .expect("numeric field")
            .to_bits()
    };
    (
        result
            .get("mapping_display")
            .and_then(serde::Value::as_str)
            .expect("mapping display")
            .to_owned(),
        float("latency"),
        float("failure_prob"),
    )
}

/// The engine's answer to the query on either point plan.
fn engine_answer(
    engine: &Engine,
    inst: &rpwf_gen::Instance,
    objective: Objective,
    keep_front: bool,
) -> (String, u64, u64) {
    let report = engine.solve(&SolveRequest {
        pipeline: &inst.pipeline,
        platform: &inst.platform,
        want: Want::Point {
            objective,
            keep_front,
        },
        budget: &Budget::unlimited(),
    });
    assert!(report.completeness.exact_complete);
    let sol = report.point().expect("thresholds are feasible");
    (
        sol.mapping.to_string(),
        sol.latency.to_bits(),
        sol.failure_prob.to_bits(),
    )
}

/// Two feasible thresholds read off the instance's exact front: a latency
/// bound and a failure bound.
fn thresholds(engine: &Engine, inst: &rpwf_gen::Instance) -> (Objective, Objective) {
    let report = engine.solve(&SolveRequest {
        pipeline: &inst.pipeline,
        platform: &inst.platform,
        want: Want::Front,
        budget: &Budget::unlimited(),
    });
    let front = report.front_answer().expect("front answer");
    let points: Vec<_> = front.iter().collect();
    let mid = &points[points.len() / 2];
    let last = &points[points.len() - 1];
    (
        Objective::MinFpUnderLatency(mid.latency),
        Objective::MinLatencyUnderFp(last.failure_prob),
    )
}

#[test]
fn first_ask_runs_the_point_plan_and_the_second_builds_the_front() {
    let engine = engine();
    let svc = SolverService::new(config());
    let instances: Vec<_> = (0..8).map(|i| het(100 + i)).collect();
    for (i, inst) in instances.iter().enumerate() {
        let id = 10 * i as u64;
        let (first_bound, second_bound) = thresholds(&engine, inst);

        // First ask: the point race alone, bit-identical to both plans.
        let before = sweeps(&svc);
        let first = svc.handle(request(id, solve(inst, first_bound)), Instant::now());
        assert!(!first.meta.cache_hit);
        assert_eq!(first.meta.exact_complete, Some(true));
        let served = answer_of(&first);
        assert_eq!(served, engine_answer(&engine, inst, first_bound, false));
        assert_eq!(served, engine_answer(&engine, inst, first_bound, true));
        assert_eq!(
            sweeps(&svc),
            before,
            "{}: first ask built a front",
            inst.label
        );

        // Second ask, new threshold: builds and caches the front.
        let second = svc.handle(request(id + 1, solve(inst, second_bound)), Instant::now());
        assert!(!second.meta.cache_hit);
        assert_eq!(
            answer_of(&second),
            engine_answer(&engine, inst, second_bound, false)
        );
        assert_eq!(sweeps(&svc), before + 1, "{}", inst.label);

        // Third ask: a read off the cached front.
        let third = svc.handle(request(id + 2, solve(inst, first_bound)), Instant::now());
        assert!(third.meta.cache_hit, "{}", inst.label);
        assert_eq!(answer_of(&third), served);
        assert_eq!(sweeps(&svc), before + 1);
    }
    assert_eq!(
        metric(&svc, "rpwf_solve_cold_plan_total{plan=\"point\"}"),
        8
    );
    assert_eq!(
        metric(&svc, "rpwf_solve_cold_plan_total{plan=\"front\"}"),
        8
    );
    // Every marker was replaced by its front.
    assert_eq!(metric(&svc, "rpwf_cache_markers"), 0);
    assert_eq!(metric(&svc, "rpwf_cache_entries"), 8);
}

#[test]
fn first_asks_leave_markers_that_are_not_entries() {
    let engine = engine();
    let svc = SolverService::new(config());
    for i in 0..8 {
        let inst = het(200 + i);
        let (bound, _) = thresholds(&engine, &inst);
        let resp = svc.handle(request(i, solve(&inst, bound)), Instant::now());
        assert!(!resp.meta.cache_hit);
    }
    assert_eq!(sweeps(&svc), 0);
    assert_eq!(metric(&svc, "rpwf_cache_markers"), 8);
    assert_eq!(metric(&svc, "rpwf_cache_entries"), 0);
    assert_eq!(metric(&svc, "rpwf_cache_hits_total"), 0);
    assert!(svc.front_cache_keys().is_empty(), "markers are not fronts");
}

#[test]
fn pareto_after_one_solve_equals_a_cold_pareto() {
    let engine = engine();
    for i in 0..8 {
        let inst = het(300 + i);
        let (bound, _) = thresholds(&engine, &inst);
        let warm = SolverService::new(config());
        let _ = warm.handle(request(1, solve(&inst, bound)), Instant::now());
        let after_solve = warm.handle(request(2, pareto(&inst)), Instant::now());
        assert!(!after_solve.meta.cache_hit, "one Solve cached no front");
        let cold = SolverService::new(config()).handle(request(2, pareto(&inst)), Instant::now());
        assert_eq!(after_solve.status, "ok", "{:?}", after_solve.error);
        assert_eq!(
            serde_json::to_string(&after_solve.result).unwrap(),
            serde_json::to_string(&cold.result).unwrap(),
            "{}",
            inst.label
        );
        assert_eq!(sweeps(&warm), 1);
        // The Pareto's front now answers Solves.
        let hit = warm.handle(request(3, solve(&inst, bound)), Instant::now());
        assert!(hit.meta.cache_hit);
    }
}

#[test]
fn concurrent_second_asks_build_one_front() {
    let engine = engine();
    for i in 0..8 {
        let inst = het(400 + i);
        let (first_bound, second_bound) = thresholds(&engine, &inst);
        let svc = SolverService::new(config());
        let _ = svc.handle(request(0, solve(&inst, first_bound)), Instant::now());
        let expected = engine_answer(&engine, &inst, second_bound, false);
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (svc, inst, barrier, expected) = (&svc, &inst, &barrier, &expected);
                scope.spawn(move || {
                    barrier.wait();
                    let resp =
                        svc.handle(request(t + 1, solve(inst, second_bound)), Instant::now());
                    assert_eq!(&answer_of(&resp), expected);
                });
            }
        });
        assert_eq!(sweeps(&svc), 1, "{}: one front build per key", inst.label);
        assert_eq!(
            metric(&svc, "rpwf_solve_cold_plan_total{plan=\"front\"}"),
            1
        );
        assert!(metric(&svc, "rpwf_front_build_joins_total") <= 3);
    }
}

#[test]
fn comm_homogeneous_instances_cache_their_front_on_the_first_ask() {
    let svc = SolverService::new(config());
    let inst = rpwf_gen::make_instance(
        PlatformClass::CommHomogeneous,
        FailureClass::Heterogeneous,
        6,
        8,
        7,
    );
    let (bound, other) = thresholds(&engine(), &inst);
    let first = svc.handle(request(1, solve(&inst, bound)), Instant::now());
    assert!(!first.meta.cache_hit);
    assert_eq!(
        metric(&svc, "rpwf_solve_cold_plan_total{plan=\"front\"}"),
        1
    );
    assert_eq!(metric(&svc, "rpwf_cache_markers"), 0);
    let second = svc.handle(request(2, solve(&inst, other)), Instant::now());
    assert!(second.meta.cache_hit, "the first ask cached the front");
    assert_eq!(sweeps(&svc), 0);
}
