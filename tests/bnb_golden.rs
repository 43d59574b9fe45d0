//! Golden regression for the exact branch-and-bound kernel on Fully
//! Heterogeneous platforms.
//!
//! Every answer of the `bnb-sweep` front and of the `BranchBound` point
//! solver is hashed bit for bit (latency bits, failure-probability bits,
//! mapping display) and compared against a digest recorded before the
//! kernel was tabulated and its bounds tightened: pruning may change how
//! much of the tree is visited, never which leaf wins. Node counts are
//! deterministic for a sequential search, so the pruning gain is guarded
//! by a count rather than a timing.

use rpwf_algo::exact::BranchBound;
use rpwf_algo::front::BranchBoundSweep;
use rpwf_algo::{BiSolution, Objective};
use rpwf_core::budget::Budget;
use rpwf_core::platform::{FailureClass, PlatformClass};

/// `(n, m, gen seed)` of the fixed het instances.
const INSTANCES: [(usize, usize, u64); 12] = [
    (4, 6, 101),
    (4, 7, 102),
    (4, 8, 103),
    (5, 6, 104),
    (5, 7, 105),
    (5, 8, 106),
    (6, 6, 107),
    (6, 7, 108),
    (6, 8, 109),
    (6, 8, 110),
    (5, 8, 111),
    (6, 7, 112),
];

/// FNV-1a digest of every front point and point answer, recorded on the
/// kernel before tabulation.
const GOLDEN_DIGEST: u64 = 0x1555_468e_a4a7_f55a;

/// Sequential nodes (every sweep step plus every point solve) the kernel
/// before tabulation explored on [`INSTANCES`].
const BASELINE_NODES: u64 = 3_003_609;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, s: &str) {
        for b in s.bytes().chain(std::iter::once(b'\n')) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn line(tag: &str, latency: f64, fp: f64, mapping: &dyn std::fmt::Display) -> String {
    format!(
        "{tag} {:016x} {:016x} {mapping}",
        latency.to_bits(),
        fp.to_bits()
    )
}

fn point_line(tag: &str, sol: Option<&BiSolution>) -> String {
    match sol {
        Some(s) => line(tag, s.latency, s.failure_prob, &s.mapping),
        None => format!("{tag} infeasible"),
    }
}

/// Runs every query and returns `(digest, sequential nodes)`.
fn run_suite() -> (u64, u64) {
    let mut h = Fnv::new();
    let mut nodes = 0u64;
    for (n, m, seed) in INSTANCES {
        let inst = rpwf_gen::make_instance(
            PlatformClass::FullyHeterogeneous,
            FailureClass::Heterogeneous,
            n,
            m,
            seed,
        );
        let (pipe, pf) = (&inst.pipeline, &inst.platform);
        h.write(&inst.label);
        let (front, stats) =
            BranchBoundSweep::default().front_with_budget_stats(pipe, pf, &Budget::unlimited());
        assert!(
            front.is_complete(),
            "{}: unlimited sweep must finish",
            inst.label
        );
        nodes += stats.nodes();
        let front = front.into_inner();
        for p in front.iter() {
            h.write(&line("front", p.latency, p.failure_prob, &p.payload));
        }

        // Thresholds exactly on a front point (the tightest feasible bound)
        // and halfway to its neighbour, on both objectives.
        let pts = front.points();
        let k = pts.len() / 2;
        let next = &pts[(k + 1).min(pts.len() - 1)];
        let objectives = [
            Objective::MinFpUnderLatency(pts[k].latency),
            Objective::MinFpUnderLatency((pts[k].latency + next.latency) / 2.0),
            Objective::MinLatencyUnderFp(pts[k].failure_prob),
            Objective::MinLatencyUnderFp((pts[k].failure_prob + next.failure_prob) / 2.0),
        ];
        for objective in objectives {
            let (sol, count) = BranchBound::new(pipe, pf).solve_counting(objective);
            nodes += count;
            h.write(&point_line(&format!("{objective:?}"), sol.as_ref()));
        }
    }
    (h.0, nodes)
}

#[test]
fn bnb_answers_match_golden_digest_with_half_the_nodes() {
    let (digest, nodes) = run_suite();
    assert_eq!(
        digest, GOLDEN_DIGEST,
        "branch-and-bound answers changed (digest {digest:#018x})"
    );
    assert!(
        nodes * 2 <= BASELINE_NODES,
        "sequential search explored {nodes} nodes; the bar is half of {BASELINE_NODES}"
    );
}
