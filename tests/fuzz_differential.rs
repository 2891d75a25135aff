//! The differential fuzz sweep over the adversarial generator corpus: each
//! case draws an instance from one of the `instgen` families (rotating
//! through scale-free, triangle-free, sgen-unsat and sgen-sat) and runs
//! [`unigen_instgen::fuzz::differential_case`] — incremental Gauss-on vs
//! Gauss-off vs scratch enumeration over the same XOR hash cells, with a
//! brute-force oracle on small instances and the Gauss-on lane's proof
//! stream verified by the independent `unigen-cert` checker — plus the
//! sampler-service check (uncertified and certified sampling lanes) on
//! every third case. Zero divergence is the pass condition.
//!
//! The sweep is fully seeded. Knobs (also documented in the README):
//!
//! * `INSTGEN_FUZZ_CASES` — number of cases (default 100, CI runs the
//!   default; crank it locally for a deeper soak).
//! * `INSTGEN_FUZZ_START` — first case index (default 0). A failure report
//!   prints the case index, instance name and seed; rerunning with
//!   `INSTGEN_FUZZ_START=<index> INSTGEN_FUZZ_CASES=1` replays exactly the
//!   failing case, and `config.generate(seed)` rebuilds its formula.

use unigen::splitmix64;
use unigen_instgen::fuzz::{differential_case, service_case, FuzzConfig};
use unigen_instgen::{InstanceGenerator, ScaleFreeConfig, SgenConfig, TriangleFreeConfig};

/// Derives case `index`: a generator config (rotating over the four
/// families, with shape knobs drawn from the case's seed stream) plus the
/// instance seed.
fn case(index: u64) -> (Box<dyn InstanceGenerator>, u64) {
    let s = splitmix64(index);
    let seed = splitmix64(s);
    let generator: Box<dyn InstanceGenerator> = match index % 4 {
        0 => {
            let num_vars = 8 + (s % 9) as usize; // 8..=16
            Box::new(ScaleFreeConfig {
                num_vars,
                num_clauses: num_vars * (2 + ((s >> 8) % 3) as usize),
                clause_len: 3,
                exponent_quarters: ((s >> 16) % 7) as u32,
            })
        }
        1 => {
            let csp_vars = 4 + (s % 3) as usize; // 4..=6, ≤ 18 bools
            Box::new(TriangleFreeConfig {
                csp_vars,
                domain: 3,
                edges: csp_vars + ((s >> 8) as usize % csp_vars),
                forbidden_per_edge: 2 + ((s >> 16) % 3) as usize,
            })
        }
        2 => Box::new(SgenConfig {
            blocks: 1 + (s % 2) as usize,
            unsat: true,
        }),
        _ => Box::new(SgenConfig {
            blocks: 1 + (s % 3) as usize,
            unsat: false,
        }),
    };
    (generator, seed)
}

fn env_usize(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn differential_sweep_has_zero_divergence() {
    let start = env_usize("INSTGEN_FUZZ_START", 0);
    let cases = env_usize("INSTGEN_FUZZ_CASES", 100);
    let config = FuzzConfig::default();

    let mut checked_cells = 0usize;
    let mut unsat_cells = 0usize;
    let mut service_checks = 0usize;
    let mut certified_steps = 0u64;
    for index in start..start + cases {
        let (generator, seed) = case(index);
        let name = generator.name();
        let formula = generator.generate(seed);

        let report = differential_case(&name, &formula, seed, &config);
        assert!(
            report.divergence.is_none(),
            "case {index}: {name} seed {seed:#x} diverged: {}\n\
             reproduce with: INSTGEN_FUZZ_START={index} INSTGEN_FUZZ_CASES=1 \
             cargo test --test fuzz_differential",
            report.divergence.as_deref().unwrap_or_default()
        );
        checked_cells += report.cells;
        unsat_cells += report.unsat_cells;
        assert!(
            report.certified_steps > 0,
            "case {index}: {name} seed {seed:#x} produced an empty proof stream"
        );
        certified_steps += report.certified_steps;

        if index % 3 == 0 {
            service_checks += 1;
            if let Some(divergence) = service_case(&name, &formula, seed) {
                panic!(
                    "case {index}: sampler-service check diverged: {divergence}\n\
                     reproduce with: INSTGEN_FUZZ_START={index} INSTGEN_FUZZ_CASES=1 \
                     cargo test --test fuzz_differential"
                );
            }
        }
    }

    eprintln!(
        "differential sweep: {cases} cases, {checked_cells} cells \
         ({unsat_cells} unsat), {service_checks} service checks, \
         {certified_steps} proof steps certified, zero divergence"
    );
    // The sweep must genuinely exercise both verdicts: the sgen-unsat lane
    // alone guarantees unsat cells at any sweep length covering it.
    if cases >= 4 {
        assert!(unsat_cells > 0, "sweep never saw an unsat cell");
        assert!(
            checked_cells as u64 > cases,
            "sweep checked fewer cells than cases"
        );
    }
}

/// The case derivation itself is pinned: shuffling it silently re-rolls the
/// whole sweep, so treat it like the golden corpus.
#[test]
fn case_derivation_is_stable() {
    let (g0, s0) = case(0);
    assert_eq!(g0.name(), "scale-free-n15-m30-k3-b1.00");
    assert_eq!(s0, 0xa706_dd2f_4d19_7e6f);
    let (g2, _) = case(2);
    assert_eq!(g2.name(), "sgen-unsat-b1");
}
