//! Output checks. In-process witnesses must satisfy their formula; a wire
//! batch must equal, outcome for outcome and bit for bit on the projection,
//! the in-process `sample_batch` for the same formula, spec, count and
//! master seed. Both sides are folded with
//! [`unigen_bench::parallel::fingerprint_batch`], which is order-sensitive.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use unigen::{SampleOutcome, SampleStats};
use unigen_bench::parallel::fingerprint_batch;
use unigen_cnf::{CnfFormula, Model, Var};
use unigen_net::wire::WireOutcomeKind;
use unigen_net::WireBatch;

/// A batch folded to what the comparison needs, in a few fixed-size
/// fields so that a client can keep one per request cheaply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Number of outcomes.
    pub outcomes: u32,
    /// Number of witness outcomes.
    pub witnesses: u32,
    /// Order-sensitive hash of the outcome kinds.
    pub kinds: u64,
    /// [`fingerprint_batch`] of the batch on the sampling set.
    pub fingerprint: u64,
}

/// Folds an in-process batch.
pub fn digest(outcomes: &[SampleOutcome], sampling_set: &[Var]) -> Digest {
    let mut hasher = DefaultHasher::new();
    for outcome in outcomes {
        outcome.kind.hash(&mut hasher);
    }
    Digest {
        outcomes: outcomes.len() as u32,
        witnesses: outcomes.iter().filter(|o| o.is_success()).count() as u32,
        kinds: hasher.finish(),
        fingerprint: fingerprint_batch(outcomes, sampling_set),
    }
}

/// Folds a wire batch, rebuilding each witness as a model whose projection
/// onto `sampling_set` carries the received bits. Rejects a batch whose
/// sampling set differs from the expected one, whose chunks arrived out of
/// index order, or whose witness payload has the wrong width.
pub fn digest_wire(batch: &WireBatch, sampling_set: &[Var]) -> Result<Digest, String> {
    let expected: Vec<u32> = sampling_set.iter().map(|v| v.index() as u32).collect();
    if batch.sampling_set != expected {
        return Err("wire sampling set differs from the formula's".to_owned());
    }
    let num_vars = sampling_set
        .iter()
        .map(|v| v.index() + 1)
        .max()
        .unwrap_or(0);
    let mut outcomes = Vec::with_capacity(batch.outcomes.len());
    for (position, wire) in batch.outcomes.iter().enumerate() {
        if wire.index != position as u64 {
            return Err(format!(
                "chunk {} arrived at position {position}",
                wire.index
            ));
        }
        let stats = SampleStats::default();
        let outcome = match (&wire.witness, wire.kind) {
            (Some(bits), WireOutcomeKind::Witness) if bits.len() == sampling_set.len() => {
                let mut values = vec![false; num_vars];
                for (var, &bit) in sampling_set.iter().zip(bits) {
                    values[var.index()] = bit;
                }
                SampleOutcome::of_witness(Model::new(values), stats)
            }
            (None, WireOutcomeKind::Bottom) => SampleOutcome::bottom(stats),
            (None, WireOutcomeKind::Interrupted) => SampleOutcome::interrupted(stats),
            (None, WireOutcomeKind::Faulted) => SampleOutcome::faulted(stats),
            _ => return Err(format!("chunk {position} has a malformed payload")),
        };
        outcomes.push(outcome);
    }
    Ok(digest(&outcomes, sampling_set))
}

/// Compares a wire digest with the in-process reference.
pub fn compare(wire: &Digest, local: &Digest) -> Result<(), String> {
    if (wire.outcomes, wire.witnesses, wire.kinds) != (local.outcomes, local.witnesses, local.kinds)
    {
        return Err(format!(
            "outcome kinds differ: wire has {} witnesses of {}, in-process {} of {}",
            wire.witnesses, wire.outcomes, local.witnesses, local.outcomes
        ));
    }
    if wire.fingerprint != local.fingerprint {
        return Err(format!(
            "projection fingerprint differs: wire {:016x} vs in-process {:016x}",
            wire.fingerprint, local.fingerprint
        ));
    }
    Ok(())
}

/// Checks witnesses with [`CnfFormula::evaluate`], remembering the ones
/// already found to satisfy the formula so a repeated witness is checked
/// once.
pub struct WitnessChecker<'f> {
    formula: &'f CnfFormula,
    verified: HashSet<Model>,
}

impl<'f> WitnessChecker<'f> {
    /// A checker for `formula`.
    pub fn new(formula: &'f CnfFormula) -> WitnessChecker<'f> {
        WitnessChecker {
            formula,
            verified: HashSet::new(),
        }
    }

    /// Checks every witness of `outcomes`.
    pub fn check(&mut self, outcomes: &[SampleOutcome]) -> Result<(), String> {
        for (index, outcome) in outcomes.iter().enumerate() {
            let Some(model) = &outcome.witness else {
                continue;
            };
            if self.verified.contains(model) {
                continue;
            }
            if !self.formula.evaluate(model) {
                return Err(format!("witness {index} does not satisfy the formula"));
            }
            self.verified.insert(model.clone());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigen::{OutcomeKind, SamplerBuilder, WitnessSampler};
    use unigen_circuit::benchmarks;
    use unigen_net::client::WireOutcome;
    use unigen_net::wire::WireStats;

    /// A small hashed-mode formula and an in-process batch on it.
    fn reference() -> (CnfFormula, Vec<Var>, Vec<SampleOutcome>) {
        let formula = benchmarks::squaring("t", 8, 2, 7).formula;
        let sampling_set = formula.sampling_set_or_all();
        let mut sampler = SamplerBuilder::unigen(&formula).build().expect("prepares");
        let outcomes = sampler.sample_batch(6, 42);
        (formula, sampling_set, outcomes)
    }

    /// The wire batch a correct daemon sends for `outcomes`.
    fn wire_batch(outcomes: &[SampleOutcome], sampling_set: &[Var]) -> WireBatch {
        let wire = outcomes
            .iter()
            .enumerate()
            .map(|(index, outcome)| WireOutcome {
                index: index as u64,
                kind: match outcome.kind {
                    OutcomeKind::Witness => WireOutcomeKind::Witness,
                    OutcomeKind::Bottom => WireOutcomeKind::Bottom,
                    OutcomeKind::Interrupted => WireOutcomeKind::Interrupted,
                    OutcomeKind::Faulted => WireOutcomeKind::Faulted,
                },
                witness: outcome
                    .witness
                    .as_ref()
                    .map(|model| sampling_set.iter().map(|&v| model.value(v)).collect()),
            })
            .collect::<Vec<_>>();
        WireBatch {
            fingerprint: 0,
            sampling_set: sampling_set.iter().map(|v| v.index() as u32).collect(),
            successes: wire.iter().filter(|o| o.witness.is_some()).count() as u64,
            outcomes: wire,
            stats: WireStats::default(),
        }
    }

    /// Indices of two witness outcomes with distinct projections.
    fn two_distinct(batch: &WireBatch) -> (usize, usize) {
        for i in 0..batch.outcomes.len() {
            for j in i + 1..batch.outcomes.len() {
                let (a, b) = (&batch.outcomes[i].witness, &batch.outcomes[j].witness);
                if a.is_some() && b.is_some() && a != b {
                    return (i, j);
                }
            }
        }
        panic!("the reference batch needs two distinct witnesses");
    }

    #[test]
    fn a_faithful_wire_batch_matches() {
        let (formula, sampling_set, outcomes) = reference();
        WitnessChecker::new(&formula)
            .check(&outcomes)
            .expect("in-process witnesses satisfy");
        let wire =
            digest_wire(&wire_batch(&outcomes, &sampling_set), &sampling_set).expect("well-formed");
        compare(&wire, &digest(&outcomes, &sampling_set)).expect("bit-identical");
    }

    #[test]
    fn one_flipped_bit_is_caught() {
        let (formula, sampling_set, mut outcomes) = reference();
        let local = digest(&outcomes, &sampling_set);

        // On the wire: flip one projected bit of one witness.
        let mut batch = wire_batch(&outcomes, &sampling_set);
        let (i, _) = two_distinct(&batch);
        let bits = batch.outcomes[i].witness.as_mut().expect("witness");
        bits[0] = !bits[0];
        let wire = digest_wire(&batch, &sampling_set).expect("well-formed");
        assert!(compare(&wire, &local).is_err());

        // In process: the same flip on the full model no longer satisfies
        // the formula (the sampling-set bits determine the rest).
        let model = outcomes[i].witness.as_ref().expect("witness");
        let mut values = model.values().to_vec();
        let var = sampling_set[0].index();
        values[var] = !values[var];
        outcomes[i].witness = Some(Model::new(values));
        assert!(WitnessChecker::new(&formula).check(&outcomes).is_err());
    }

    #[test]
    fn a_wrong_order_wire_batch_is_caught() {
        let (_, sampling_set, outcomes) = reference();
        let local = digest(&outcomes, &sampling_set);
        let faithful = wire_batch(&outcomes, &sampling_set);
        let (i, j) = two_distinct(&faithful);

        // Chunks delivered out of order, each keeping its own index.
        let mut reordered = faithful.clone();
        reordered.outcomes.swap(i, j);
        assert!(digest_wire(&reordered, &sampling_set).is_err());

        // Witnesses swapped under in-order indices.
        let mut relabelled = faithful;
        let a = relabelled.outcomes[i].witness.take();
        let b = relabelled.outcomes[j].witness.take();
        relabelled.outcomes[i].witness = b;
        relabelled.outcomes[j].witness = a;
        let wire = digest_wire(&relabelled, &sampling_set).expect("well-formed");
        assert!(compare(&wire, &local).is_err());
    }

    #[test]
    fn a_kind_mismatch_is_caught() {
        let (_, sampling_set, outcomes) = reference();
        let local = digest(&outcomes, &sampling_set);
        let mut batch = wire_batch(&outcomes, &sampling_set);
        let last = batch.outcomes.last_mut().expect("non-empty");
        last.kind = WireOutcomeKind::Faulted;
        last.witness = None;
        let wire = digest_wire(&batch, &sampling_set).expect("well-formed");
        assert!(compare(&wire, &local).is_err());
    }
}
