//! Criterion bench for the ApproxMC preparation step (line 9 of
//! Algorithm 1): the one-off cost UniGen amortises over all samples, with and
//! without the guarantee-voiding leap-frogging shortcut, compared against the
//! exact counter on the instances where the latter is feasible.
//!
//! The `approxmc_serve_cold` group counts one instance of each of the three
//! satisfiable serve-cold families (the generator families the daemon
//! benchmark sends as fresh formulas, where ApproxMC dominates prepare and
//! Gauss–Jordan propagation dominates ApproxMC). Running
//! `cargo bench -p unigen-bench --bench approxmc` on two checkouts gives a
//! before/after of the solver kernel in one command.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use unigen_circuit::benchmarks::{self, Benchmark};
use unigen_counting::{ApproxMc, ApproxMcConfig, ExactCounter};
use unigen_instgen::{InstanceGenerator, ScaleFreeConfig, SgenConfig, TriangleFreeConfig};

fn instances() -> Vec<Benchmark> {
    vec![
        benchmarks::parity_chain("case121-small", 12, 3, 4, 0x0121),
        benchmarks::iscas_like("s526-small", 10, 90, 4, 0x0526),
    ]
}

/// One instance of each satisfiable serve-cold family, at seed 1.
fn serve_cold_instances() -> Vec<(String, unigen_cnf::CnfFormula)> {
    let generators: [Box<dyn InstanceGenerator>; 3] = [
        Box::new(ScaleFreeConfig {
            num_vars: 40,
            num_clauses: 100,
            clause_len: 3,
            exponent_quarters: 3,
        }),
        Box::new(TriangleFreeConfig {
            csp_vars: 16,
            domain: 3,
            edges: 20,
            forbidden_per_edge: 3,
        }),
        Box::new(SgenConfig {
            blocks: 8,
            unsat: false,
        }),
    ];
    generators
        .iter()
        .map(|g| (g.name(), g.generate(1)))
        .collect()
}

fn serve_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("approxmc_serve_cold");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(10));
    let counter = ApproxMc::new(ApproxMcConfig::default());
    for (name, formula) in serve_cold_instances() {
        group.bench_with_input(BenchmarkId::new("approxmc", &name), &formula, |b, f| {
            b.iter(|| counter.count(f, 7).expect("count"))
        });
    }
    group.finish();
}

fn counting(c: &mut Criterion) {
    let mut group = c.benchmark_group("approxmc");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(10));

    for benchmark in instances() {
        group.bench_with_input(
            BenchmarkId::new("approxmc", &benchmark.name),
            &benchmark,
            |b, benchmark| {
                let counter = ApproxMc::new(ApproxMcConfig::default());
                b.iter(|| counter.count(&benchmark.formula, 7).expect("count"))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("approxmc_leapfrog", &benchmark.name),
            &benchmark,
            |b, benchmark| {
                let counter = ApproxMc::new(ApproxMcConfig {
                    leapfrog: true,
                    ..ApproxMcConfig::default()
                });
                b.iter(|| counter.count(&benchmark.formula, 7).expect("count"))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("exact", &benchmark.name),
            &benchmark,
            |b, benchmark| {
                b.iter(|| {
                    ExactCounter::new()
                        .count(&benchmark.formula)
                        .expect("count")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, counting, serve_cold);
criterion_main!(benches);
