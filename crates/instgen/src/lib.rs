//! Adversarial instance generators and a differential fuzz harness.
//!
//! The paper's evaluation corpus (and this repo's bench suites before this
//! crate existed) is built from hand-crafted circuit encodings that are
//! sat-heavy and structurally similar. This crate supplies the instance
//! families the literature recommends for stressing XOR-hashed samplers on
//! exactly the inputs where they get hard:
//!
//! * [`ScaleFreeConfig`] — random k-SAT whose variable occurrences follow a
//!   power law (Ansótegui, Bonet & Levy, *Towards Industrial-Like Random SAT
//!   Instances* / *Scale-Free Random SAT Instances*),
//! * [`TriangleFreeConfig`] — binary CSPs whose constraint graph is kept
//!   triangle-free, directly encoded to CNF (Escamocher, O'Sullivan &
//!   Prestwich, *Generating Difficult SAT Instances by Preventing
//!   Triangles*),
//! * [`SgenConfig`] — sgen-style small hard blocks (Spence's `sgen`), whose
//!   unsat variant is the classic "tiny but hard to refute" family.
//!
//! Every family implements [`InstanceGenerator`]: a **seeded, deterministic**
//! `generate(seed) -> CnfFormula` plus a canonical DIMACS emitter and a
//! stable [fingerprint](InstanceGenerator::fingerprint) so corpora can be
//! pinned bit-for-bit across PRs and hosts. The [`strategy`] module wraps the
//! same generators as `proptest` strategies for property tests, and [`fuzz`]
//! builds the differential harness that cross-checks the incremental solver
//! (Gauss on/off), scratch enumeration, a brute-force oracle, and the
//! sampler service over generated instances. The [`chaos`] module layers a
//! seeded [`unigen::FaultPlan`] on top of the same corpus and checks that
//! the recovery ladder and worker-respawn path absorb every injected fault
//! without perturbing the witness sequence.

use unigen_cnf::CnfFormula;

mod scale_free;
mod sgen;
mod triangle_free;

pub mod chaos;
pub mod fuzz;
pub mod strategy;

pub use scale_free::ScaleFreeConfig;
pub use sgen::SgenConfig;
pub use triangle_free::TriangleFreeConfig;

/// A deterministic, seeded instance generator.
///
/// Implementations must be pure functions of `(self, seed)`: the same
/// configuration and seed yield the same formula on every host and every
/// run. All randomness is drawn from the vendored `StdRng` (a fixed
/// xoshiro256++ stream) and all arithmetic is integer-only, so DIMACS
/// output — and therefore [`fingerprint`](Self::fingerprint) — is
/// bit-reproducible.
pub trait InstanceGenerator {
    /// A short, human-readable name encoding the family and its knobs,
    /// suitable for bench tables and fuzz-failure reports.
    fn name(&self) -> String;

    /// Generates the instance for `seed`.
    fn generate(&self, seed: u64) -> CnfFormula;

    /// The canonical DIMACS text of the instance for `seed`, as emitted by
    /// [`unigen_cnf::dimacs::to_dimacs_string`].
    fn dimacs(&self, seed: u64) -> String {
        unigen_cnf::dimacs::to_dimacs_string(&self.generate(seed))
    }

    /// A stable 64-bit fingerprint of the canonical DIMACS text (FNV-1a,
    /// implemented here rather than via `DefaultHasher`, whose output is
    /// not guaranteed stable across Rust releases).
    fn fingerprint(&self, seed: u64) -> u64 {
        fnv1a(self.dimacs(seed).as_bytes())
    }
}

/// FNV-1a over bytes: the stable hash behind
/// [`InstanceGenerator::fingerprint`] (re-exported from [`unigen`]).
pub use unigen::fnv1a;

/// Fisher–Yates shuffle. The vendored `rand` shim has no `SliceRandom`, so
/// the generators share this helper; it consumes exactly `len - 1` range
/// draws, keeping generator output a pure function of the seed.
pub(crate) fn shuffle<T, R: rand::Rng>(items: &mut [T], rng: &mut R) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shuffle_is_a_permutation_and_seed_deterministic() {
        let run = |seed: u64| {
            let mut v: Vec<usize> = (0..50).collect();
            shuffle(&mut v, &mut StdRng::seed_from_u64(seed));
            v
        };
        let a = run(1);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(a, run(1));
        assert_ne!(a, run(2));
    }
}
