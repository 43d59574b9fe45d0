//! The correctness gate. A mismatch fails the run with a non-zero exit;
//! it is never folded into a metric.

use crate::inputs::Inst;
use rpwf_algo::engine::{Engine, SolveRequest, Want};
use rpwf_algo::Objective;
use rpwf_core::budget::Budget;
use rpwf_core::eval::EvalContext;
use rpwf_core::mapping::IntervalMapping;
use rpwf_core::pareto::ParetoFront;
use rpwf_server::protocol::{ExplainResult, FrontEndResult, FrontPartResult, SolveResult};
use rpwf_server::Response;
use serde::Deserialize;
use std::sync::Arc;

pub fn parse(line: &str) -> Result<Response, String> {
    serde_json::from_str(line).map_err(|e| format!("unparseable response {e}: {line:.200}"))
}

/// The error kind of a non-`ok` answer, for the failure tally.
pub fn error_kind(response: &Response) -> Option<String> {
    (response.status != "ok").then(|| {
        response
            .error
            .as_ref()
            .map_or_else(|| response.status.clone(), |e| e.kind.clone())
    })
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// An `ok` Solve answer: re-evaluates the mapping with `rpwf_core::eval`,
/// which must reproduce the reported latency and failure probability,
/// and checks the bound holds.
pub fn solve_answer(
    inst: &Inst,
    objective: Objective,
    response: &Response,
) -> Result<SolveResult, String> {
    let value = response
        .result
        .as_ref()
        .ok_or("ok Solve without a result")?;
    let result = SolveResult::from_value(value).map_err(|e| format!("Solve result shape: {e}"))?;
    let scores = EvalContext::new(&inst.pipeline, &inst.platform).evaluate(&result.mapping);
    if !close(scores.latency, result.latency) || !close(scores.failure_prob(), result.failure_prob)
    {
        return Err(format!(
            "{}: reported (L={}, FP={}) but the mapping evaluates to (L={}, FP={})",
            inst.label,
            result.latency,
            result.failure_prob,
            scores.latency,
            scores.failure_prob()
        ));
    }
    if !objective.feasible(result.latency, result.failure_prob) {
        return Err(format!(
            "{}: answer (L={}, FP={}) violates {objective:?}",
            inst.label, result.latency, result.failure_prob
        ));
    }
    Ok(result)
}

/// A direct `Engine::solve` point request: with `keep_front: false` the
/// per-threshold race a `cold-point` answer must equal, with `true` the
/// front read the server runs today.
pub fn point_solve(
    engine: &Engine,
    inst: &Inst,
    objective: Objective,
    keep_front: bool,
) -> Option<rpwf_algo::BiSolution> {
    engine
        .solve(&SolveRequest {
            pipeline: &inst.pipeline,
            platform: &inst.platform,
            want: Want::Point {
                objective,
                keep_front,
            },
            budget: &Budget::unlimited(),
        })
        .point()
        .cloned()
}

/// A served answer against the direct point race.
pub fn equals_race(
    inst: &Inst,
    served: &SolveResult,
    race: Option<&rpwf_algo::BiSolution>,
) -> Result<(), String> {
    let race = race.ok_or_else(|| format!("{}: the direct race found no answer", inst.label))?;
    if served.mapping != race.mapping
        || served.latency.to_bits() != race.latency.to_bits()
        || served.failure_prob.to_bits() != race.failure_prob.to_bits()
    {
        return Err(format!(
            "{}: served {} (L={}, FP={}) but the direct race answers {} (L={}, FP={})",
            inst.label,
            served.mapping_display,
            served.latency,
            served.failure_prob,
            race.mapping,
            race.latency,
            race.failure_prob
        ));
    }
    Ok(())
}

/// A one-shot `Want::Front` front and whether it is exact.
pub type Front = (Arc<ParetoFront<IntervalMapping>>, bool);

/// The one-shot `Want::Front` front of an instance and whether it is
/// exact.
pub fn one_shot_front(engine: &Engine, inst: &Inst) -> Front {
    let report = engine.solve(&SolveRequest {
        pipeline: &inst.pipeline,
        platform: &inst.platform,
        want: Want::Front,
        budget: &Budget::unlimited(),
    });
    let front = report
        .front_answer()
        .expect("a Front request answers a front")
        .clone();
    (front, report.completeness.exact_complete)
}

/// Chunked `Pareto` parts, reassembled, against the one-shot front.
pub fn pareto_stream(
    (front, complete): &Front,
    inst: &Inst,
    lines: &[String],
) -> Result<(), String> {
    let mut points = Vec::new();
    let (last, parts) = lines.split_last().ok_or("empty Pareto answer")?;
    for (seq, line) in parts.iter().enumerate() {
        let response = parse(line)?;
        let value = response.result.as_ref().ok_or("part without a result")?;
        let part = FrontPartResult::from_value(value).map_err(|e| format!("part shape: {e}"))?;
        if part.seq != seq as u64 {
            return Err(format!(
                "{}: part {seq} arrived as seq {}",
                inst.label, part.seq
            ));
        }
        points.extend(part.points);
    }
    let end = parse(last)?;
    let value = end.result.as_ref().ok_or("front end without a result")?;
    let end = FrontEndResult::from_value(value).map_err(|e| format!("front end shape: {e}"))?;
    let matches = end.complete == *complete
        && end.parts == parts.len() as u64
        && end.points_total == points.len() as u64
        && points.len() == front.len()
        && points.iter().zip(front.iter()).all(|(got, want)| {
            got.latency.to_bits() == want.latency.to_bits()
                && got.failure_prob.to_bits() == want.failure_prob.to_bits()
                && got.mapping_display == want.payload.to_string()
        });
    if matches {
        Ok(())
    } else {
        Err(format!(
            "{}: streamed front ({} points in {} parts) differs from the one-shot front ({} points)",
            inst.label,
            points.len(),
            parts.len(),
            front.len()
        ))
    }
}

/// An `Explain` answer must be proven and name at least one MUS.
pub fn explain_answer(inst: &Inst, response: &Response) -> Result<(), String> {
    let value = response
        .result
        .as_ref()
        .ok_or("ok Explain without a result")?;
    let result = ExplainResult::from_value(value).map_err(|e| format!("Explain shape: {e}"))?;
    if result.feasible || !result.proven || result.muses.is_empty() {
        return Err(format!(
            "{}: explanation feasible={} proven={} with {} MUS",
            inst.label,
            result.feasible,
            result.proven,
            result.muses.len()
        ));
    }
    Ok(())
}
