//! Workload inputs: instances from `rpwf_gen` under the run's seed, the
//! request lines the server receives, and a digest of the stream.

use crate::rng::Rng;
use rpwf_algo::Objective;
use rpwf_core::hash::CanonicalHasher;
use rpwf_core::platform::{FailureClass, Platform, PlatformClass};
use rpwf_core::stage::Pipeline;

/// One generated instance with its wire JSON and single-criterion optima,
/// which bracket every feasible threshold.
pub struct Inst {
    pub label: String,
    pub pipeline: Pipeline,
    pub platform: Platform,
    /// `"pipeline":…,"platform":…` as it appears inside a command.
    body: String,
    /// Minimum latency and the failure probability of that mapping.
    pub lat_min: f64,
    pub fp_at_lat_min: f64,
    /// Minimum failure probability and the latency of that mapping.
    pub fp_min: f64,
    pub lat_at_fp_min: f64,
}

impl Inst {
    pub fn generate(class: PlatformClass, n: usize, m: usize, gen_seed: u64) -> Inst {
        let inst = rpwf_gen::make_instance(class, FailureClass::Heterogeneous, n, m, gen_seed);
        let (fast_mapping, _) =
            rpwf_algo::exact::min_latency_interval(&inst.pipeline, &inst.platform);
        let fast = rpwf_algo::BiSolution::evaluate(fast_mapping, &inst.pipeline, &inst.platform);
        let safe = rpwf_algo::mono::minimize_failure(&inst.pipeline, &inst.platform);
        let body = format!(
            "\"pipeline\":{},\"platform\":{}",
            serde_json::to_string(&inst.pipeline).expect("pipelines serialize"),
            serde_json::to_string(&inst.platform).expect("platforms serialize"),
        );
        Inst {
            label: inst.label,
            pipeline: inst.pipeline,
            platform: inst.platform,
            body,
            lat_min: fast.latency,
            fp_at_lat_min: fast.failure_prob,
            fp_min: safe.failure_prob,
            lat_at_fp_min: safe.latency,
        }
    }

    /// A feasible threshold strictly between the two single-criterion
    /// optima: a latency bound when `latency_axis`, else a failure bound.
    /// `t` in `[0, 1]` picks the position.
    pub fn feasible_bound(&self, latency_axis: bool, t: f64) -> Objective {
        let t = 0.02 + 0.96 * t;
        if latency_axis {
            Objective::MinFpUnderLatency(
                self.lat_min + (self.lat_at_fp_min - self.lat_min).max(0.0) * t,
            )
        } else {
            Objective::MinLatencyUnderFp(
                self.fp_min + (self.fp_at_lat_min - self.fp_min).max(0.0) * t,
            )
        }
    }

    /// A bound below the instance's optimum on its axis: infeasible.
    pub fn infeasible_bound(&self, latency_axis: bool) -> Objective {
        if latency_axis {
            Objective::MinFpUnderLatency(self.lat_min * 0.8)
        } else {
            Objective::MinLatencyUnderFp(self.fp_min * 0.5)
        }
    }

    /// A `Solve` or `Explain` request line.
    pub fn threshold_line(
        &self,
        cmd: &str,
        id: u64,
        deadline_ms: u64,
        objective: Objective,
    ) -> String {
        let (axis, value) = match objective {
            Objective::MinFpUnderLatency(l) => ("MinFpUnderLatency", l),
            Objective::MinLatencyUnderFp(f) => ("MinLatencyUnderFp", f),
        };
        format!(
            "{{\"id\":{id},\"deadline_ms\":{deadline_ms},\"cmd\":{{\"{cmd}\":{{{},\"objective\":{{\"{axis}\":{value:?}}}}}}}}}",
            self.body
        )
    }

    /// A chunked `Pareto` request line.
    pub fn pareto_line(&self, id: u64, deadline_ms: u64, chunk: usize) -> String {
        format!(
            "{{\"id\":{id},\"deadline_ms\":{deadline_ms},\"cmd\":{{\"Pareto\":{{{},\"chunk\":{chunk}}}}}}}",
            self.body
        )
    }
}

/// Draws a platform class for a `ch/het` pool.
pub fn ch_or_het(rng: &mut Rng) -> PlatformClass {
    if rng.coin() {
        PlatformClass::CommHomogeneous
    } else {
        PlatformClass::FullyHeterogeneous
    }
}

/// Digest of a generated request stream. The id field is left out, so
/// the digest names the traffic, not the order connections took it in.
#[derive(Default)]
pub struct StreamDigest {
    hasher: CanonicalHasher,
    lines: u64,
}

impl StreamDigest {
    pub fn add(&mut self, line: &str) {
        let body = line
            .split_once(",\"deadline_ms\"")
            .map_or(line, |(_, rest)| rest);
        self.hasher.write_str(body);
        self.lines += 1;
    }

    pub fn render(&self) -> String {
        format!("{:032x} over {} lines", self.hasher.finish(), self.lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpwf_server::protocol::{Command, Request};

    #[test]
    fn lines_decode_to_the_intended_requests() {
        let inst = Inst::generate(PlatformClass::FullyHeterogeneous, 4, 5, 9);
        let objective = inst.feasible_bound(false, 0.37);
        let line = inst.threshold_line("Solve", 7, 1000, objective);
        let request: Request = serde_json::from_str(&line).expect("line parses");
        assert_eq!(request.id, Some(7));
        assert_eq!(request.deadline_ms, Some(1000));
        match request.cmd {
            Command::Solve {
                pipeline,
                platform,
                objective: got,
            } => {
                assert_eq!(got, objective);
                assert_eq!(
                    rpwf_core::hash::instance_key(&pipeline, &platform),
                    rpwf_core::hash::instance_key(&inst.pipeline, &inst.platform)
                );
            }
            other => panic!("decoded {other:?}"),
        }
        let pareto: Request = serde_json::from_str(&inst.pareto_line(8, 1000, 4)).expect("parses");
        assert!(matches!(pareto.cmd, Command::Pareto { chunk: Some(4), .. }));
    }

    #[test]
    fn bounds_bracket_the_optima() {
        let inst = Inst::generate(PlatformClass::CommHomogeneous, 5, 6, 3);
        for t in [0.0, 0.5, 1.0] {
            // The fastest mapping meets every latency bound, the safest
            // mapping every failure bound.
            assert!(inst
                .feasible_bound(true, t)
                .feasible(inst.lat_min, inst.fp_at_lat_min));
            assert!(inst
                .feasible_bound(false, t)
                .feasible(inst.lat_at_fp_min, inst.fp_min));
            assert!(!inst
                .infeasible_bound(true)
                .feasible(inst.lat_min, inst.fp_at_lat_min));
        }
    }
}
