//! The chaos sweep over the adversarial generator corpus: each case draws
//! an instance from one of the `instgen` families (the same rotation as the
//! differential fuzz sweep) and runs
//! [`unigen_instgen::chaos::chaos_case`] — a fault-free reference batch,
//! two serial lanes under bit-identical seeded [`unigen::FaultPlan`]
//! schedules (replay equivalence + balanced solver guards), and a service
//! lane with a scheduled worker panic (respawn + bit-identical batch).
//! Zero divergence is the pass condition, and the sweep as a whole must
//! have actually injected faults — a sweep that never fired a fault proves
//! nothing.
//!
//! The sweep is fully seeded. Knobs (also documented in the README):
//!
//! * `CHAOS_FUZZ_CASES` — number of cases (default 100, CI runs the
//!   default; crank it locally for a deeper soak).
//! * `CHAOS_FUZZ_START` — first case index (default 0). A failure report
//!   prints the case index, instance name and seed; rerunning with
//!   `CHAOS_FUZZ_START=<index> CHAOS_FUZZ_CASES=1` replays exactly the
//!   failing case, and `config.generate(seed)` rebuilds its formula.

use unigen::splitmix64;
use unigen_instgen::chaos::chaos_case;
use unigen_instgen::{InstanceGenerator, ScaleFreeConfig, SgenConfig, TriangleFreeConfig};

/// Derives case `index`: a generator config (rotating over the four
/// families, with shape knobs drawn from the case's seed stream) plus the
/// instance seed and the per-case batch size.
fn case(index: u64) -> (Box<dyn InstanceGenerator>, u64, usize) {
    let s = splitmix64(index);
    let seed = splitmix64(s);
    let count = 2 + (s >> 24) as usize % 3; // 2..=4 samples per lane
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
    (generator, seed, count)
}

fn env_usize(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn chaos_sweep_has_zero_divergence_and_injects_faults() {
    let start = env_usize("CHAOS_FUZZ_START", 0);
    let cases = env_usize("CHAOS_FUZZ_CASES", 100);

    let mut faults = 0u64;
    let mut retries = 0usize;
    let mut degradations = 0usize;
    let mut respawns = 0u64;
    let mut sat_cases = 0usize;
    for index in start..start + cases {
        let (generator, seed, count) = case(index);
        let name = generator.name();
        let formula = generator.generate(seed);

        let report = chaos_case(&name, &formula, seed, count);
        assert!(
            report.divergence.is_none(),
            "case {index}: {name} seed {seed:#x} under schedule `{}` diverged: {}\n\
             reproduce with: CHAOS_FUZZ_START={index} CHAOS_FUZZ_CASES=1 \
             cargo test --test chaos_differential",
            report.schedule,
            report.divergence.as_deref().unwrap_or_default()
        );
        faults += report.faults_injected;
        retries += report.retries;
        degradations += report.degradations;
        respawns += report.service_respawns;
        if report.service_respawns > 0 {
            sat_cases += 1;
        }
    }

    eprintln!(
        "chaos sweep: {cases} cases ({sat_cases} sat), {faults} solver faults \
         injected, {retries} ladder retries, {degradations} degradations, \
         {respawns} worker respawns, zero divergence"
    );
    // A sweep long enough to cover all four families must have genuinely
    // exercised the fault paths: solver-level injections that the ladder
    // absorbed, and a worker panic per satisfiable case that the service
    // absorbed by respawning.
    if cases >= 8 {
        assert!(faults > 0, "sweep never injected a solver-level fault");
        assert!(
            retries + degradations > 0,
            "sweep never observed a ladder recovery"
        );
        assert!(sat_cases > 0, "sweep never reached the service lane");
        assert_eq!(
            respawns, sat_cases as u64,
            "every satisfiable case must absorb exactly one worker panic"
        );
    }
}

/// The case derivation itself is pinned: shuffling it silently re-rolls the
/// whole sweep, so treat it like the golden corpus. The generator rotation
/// and seed stream deliberately match the differential fuzz sweep's.
#[test]
fn case_derivation_is_stable() {
    let (g0, s0, c0) = case(0);
    assert_eq!(g0.name(), "scale-free-n15-m30-k3-b1.00");
    assert_eq!(s0, 0xa706_dd2f_4d19_7e6f);
    assert!((2..=4).contains(&c0));
    let (g2, _, _) = case(2);
    assert_eq!(g2.name(), "sgen-unsat-b1");
}
