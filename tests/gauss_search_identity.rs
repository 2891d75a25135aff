//! The Gauss–Jordan engine's search-identity golden.
//!
//! The matrix kernel may change how it computes row states, implied
//! literals and reasons, but not *which* it computes or in what order: the
//! solver must walk exactly the same search tree. These counters pin that
//! tree on the three serve-cold families (the workload where Gauss
//! propagation is the hottest phase): every decision, propagation,
//! conflict, matrix implication and learned clause of one ApproxMC count
//! and of one 8-sample UniGen batch. Any change to propagation order or to
//! reason contents shifts at least one of them; a pure speed-up of the
//! kernel leaves them all equal.

use unigen::{fnv1a, fnv1a_extend, UniGen, UniGenConfig, WitnessSampler};
use unigen_cnf::CnfFormula;
use unigen_counting::{ApproxMc, ApproxMcConfig};
use unigen_instgen::{InstanceGenerator, ScaleFreeConfig, SgenConfig, TriangleFreeConfig};
use unigen_satsolver::SolverStats;

/// The counters a search-identical kernel must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Search {
    propagations: u64,
    decisions: u64,
    conflicts: u64,
    gauss_propagations: u64,
    gauss_conflicts: u64,
    learned_clauses: u64,
}

impl From<&SolverStats> for Search {
    fn from(s: &SolverStats) -> Self {
        Search {
            propagations: s.propagations,
            decisions: s.decisions,
            conflicts: s.conflicts,
            gauss_propagations: s.gauss_propagations,
            gauss_conflicts: s.gauss_conflicts,
            learned_clauses: s.learned_clauses,
        }
    }
}

/// Shorthand for the golden tables below (field order as in [`Search`]).
const fn search(p: u64, d: u64, c: u64, gp: u64, gc: u64, l: u64) -> Search {
    Search {
        propagations: p,
        decisions: d,
        conflicts: c,
        gauss_propagations: gp,
        gauss_conflicts: gc,
        learned_clauses: l,
    }
}

struct Golden {
    /// ApproxMC's estimate and its solver's counters.
    estimate: u128,
    approxmc: Search,
    /// The sampler's solver after prepare plus the batch, and an FNV-1a
    /// fingerprint of the batch's witnesses (index order, `⊥` as `-`).
    sampler: Search,
    witnesses: u64,
}

const FORMULA_SEED: u64 = 1;
const COUNT_SEED: u64 = 2014;
const BATCH_SEED: u64 = 7;

fn run(formula: &CnfFormula) -> Golden {
    let sampling_set = formula.sampling_set_or_all();
    let approx = ApproxMc::new(ApproxMcConfig::default())
        .count_with_sampling_set(formula, &sampling_set, COUNT_SEED)
        .expect("the family instance is countable");
    let config = UniGenConfig {
        seed: COUNT_SEED,
        ..UniGenConfig::default()
    };
    let mut sampler = UniGen::new(formula, config).expect("the family instance is satisfiable");
    let mut witnesses = fnv1a(b"");
    for outcome in sampler.sample_batch(8, BATCH_SEED) {
        let bits: Vec<u8> = match &outcome.witness {
            Some(model) => model.values().iter().map(|&b| b'0' + b as u8).collect(),
            None => b"-".to_vec(),
        };
        witnesses = fnv1a_extend(witnesses, &bits);
        witnesses = fnv1a_extend(witnesses, b"\n");
    }
    Golden {
        estimate: approx.estimate,
        approxmc: Search::from(&approx.solver_stats),
        sampler: Search::from(sampler.solver_stats()),
        witnesses,
    }
}

fn check(name: &str, generator: &dyn InstanceGenerator, expected: Golden) {
    let formula = generator.generate(FORMULA_SEED);
    let got = run(&formula);
    let report = format!(
        "{name}: estimate {} approxmc {:?} sampler {:?} witnesses {:#018x}",
        got.estimate, got.approxmc, got.sampler, got.witnesses
    );
    assert_eq!(got.estimate, expected.estimate, "{report}");
    assert_eq!(got.approxmc, expected.approxmc, "{report}");
    assert_eq!(got.sampler, expected.sampler, "{report}");
    assert_eq!(got.witnesses, expected.witnesses, "{report}");
}

#[test]
fn scale_free_search_is_pinned() {
    let generator = ScaleFreeConfig {
        num_vars: 40,
        num_clauses: 100,
        clause_len: 3,
        exponent_quarters: 3,
    };
    check(
        "scale-free n40/m100/k3",
        &generator,
        Golden {
            estimate: 1146880,
            approxmc: search(104149, 14898, 7475, 73970, 1442, 52),
            sampler: search(45280, 4279, 2730, 36228, 601, 42),
            witnesses: 0x604a0970c7ceda2e,
        },
    );
}

#[test]
fn triangle_free_search_is_pinned() {
    let generator = TriangleFreeConfig {
        csp_vars: 16,
        domain: 3,
        edges: 20,
        forbidden_per_edge: 3,
    };
    check(
        "triangle-free v16/e20",
        &generator,
        Golden {
            estimate: 31744,
            approxmc: search(223603, 23758, 18740, 98890, 6308, 22),
            sampler: search(131519, 12280, 10806, 64717, 4073, 17),
            witnesses: 0x21c252b4a38c8748,
        },
    );
}

#[test]
fn sgen_sat_search_is_pinned() {
    let generator = SgenConfig {
        blocks: 8,
        unsat: false,
    };
    check(
        "sgen-sat b8",
        &generator,
        Golden {
            estimate: 301989888,
            approxmc: search(264647, 30885, 18124, 253408, 3872, 0),
            sampler: search(75095, 5998, 4516, 81788, 1040, 0),
            witnesses: 0x9b0fc02848ee97b9,
        },
    );
}
