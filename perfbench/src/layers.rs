//! Per-layer metrics for the traced run.
//!
//! Two sources feed them. Counters the program already reports
//! (`SampleStats`, `WireStats`, `WireHealth`) are collected from every
//! response of the timed phase. Layers that are only reached inside another
//! layer's call (the hiThresh probe and ApproxMC inside prepare, hash draws
//! and cell enumerations inside a sample) are measured by calling their
//! public functions directly on the workload's formulas, with the same
//! prepare seed and the operating widths `{q−3, …, q}` the prepared sampler
//! uses; each such call is a span of its own, a sibling of the enclosing
//! call, and is reported as a share of it.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use unigen::{PreparedMode, SampleOutcome, SamplerBuilder, UniGenConfig};
use unigen_cnf::{dimacs, CnfFormula};
use unigen_counting::ApproxMc;
use unigen_hashing::XorHashFamily;
use unigen_satsolver::{enumerate_cell, Budget, Solver};

use crate::stats::{mean, median, percentile, ratio};
use crate::trace::SpanLog;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// One direct cell enumeration at an operating width.
#[derive(Debug, Clone, Copy)]
struct Cell {
    ms: f64,
    propagations: u64,
    conflicts: u64,
    witnesses: usize,
}

/// Direct layer calls on one formula.
#[derive(Debug, Clone, Default)]
pub struct FormulaProbe {
    parse_ms: f64,
    prepare_s: f64,
    hithresh_s: f64,
    approxmc_s: Option<f64>,
    approxmc_bsat_calls: usize,
    approxmc_failed_iterations: usize,
    /// `Some(true)` for enumerated mode; `None` for an unsatisfiable formula.
    enumerated: Option<bool>,
    cells: Vec<Cell>,
    draws_us: Vec<f64>,
    xor_lens: Vec<f64>,
}

impl FormulaProbe {
    /// Prepare time not spent in the hiThresh probe or ApproxMC.
    fn prepare_self_s(&self) -> f64 {
        // Prepare calls ApproxMC only in hashed mode.
        let approxmc = match self.enumerated {
            Some(false) => self.approxmc_s.unwrap_or(0.0),
            _ => 0.0,
        };
        self.prepare_s - self.hithresh_s - approxmc
    }
}

/// Direct cell enumerations per probed formula.
const PROBE_CELLS: usize = 16;

/// Calls each layer's public function directly on the formula of `text`:
/// parse, prepare, the hiThresh probe, ApproxMC and [`PROBE_CELLS`] hashed
/// cells at
/// the operating widths. For a formula prepare finds in enumerated mode the
/// widths come from the direct ApproxMC estimate, by the rule prepare uses
/// in hashed mode. An unsatisfiable formula stops after the probe, as
/// prepare does.
pub fn probe_formula(text: &str, seed: u64, log: &mut SpanLog, request: u64) -> FormulaProbe {
    let config = UniGenConfig::default();
    let mut probe = FormulaProbe::default();

    let (parsed, span) = log.record("cnf.dimacs::parse", None, request, || dimacs::parse(text));
    probe.parse_ms = span_micros(log, span) / 1e3;
    let formula: CnfFormula = match parsed {
        Ok(formula) => formula,
        Err(_) => return probe,
    };
    let sampling_set = formula.sampling_set_or_all();

    let (built, span) = log.record("core.SamplerBuilder::build", None, request, || {
        SamplerBuilder::unigen(&formula).seed(config.seed).build()
    });
    probe.prepare_s = span_micros(log, span) / 1e6;

    // The hiThresh probe, exactly as prepare issues it: one BSAT over the
    // bare formula on a fresh solver, bounded at hiThresh + 1. The solver
    // then carries on into the hashed cells below, as the sampler's does.
    let kappa_pivot =
        unigen::compute_kappa_pivot(config.epsilon).expect("default epsilon is valid");
    let bound = kappa_pivot.hi_thresh_count() + 1;
    let mut solver = Solver::from_formula(&formula);
    let budget = Budget::new();
    let (_, span) = log.record("satsolver.enumerate_cell.hithresh", None, request, || {
        enumerate_cell(&mut solver, &sampling_set, &[], bound, &budget)
    });
    probe.hithresh_s = span_micros(log, span) / 1e6;

    let sampler = match built {
        Ok(sampler) => sampler,
        Err(_) => return probe,
    };
    let unigen = sampler
        .as_unigen()
        .expect("a UniGen spec builds a UniGen sampler");
    let hashed_q = match unigen.prepared_mode() {
        PreparedMode::Hashed { q, .. } => Some(*q),
        PreparedMode::Enumerated { .. } => None,
    };
    probe.enumerated = Some(hashed_q.is_none());

    let counter = ApproxMc::new(config.approxmc.clone());
    let (counted, span) = log.record("counting.ApproxMc::count", None, request, || {
        counter.count_with_sampling_set(&formula, &sampling_set, config.seed)
    });
    let q = match counted {
        Ok(result) => {
            probe.approxmc_s = Some(span_micros(log, span) / 1e6);
            probe.approxmc_bsat_calls = result.bsat_calls;
            probe.approxmc_failed_iterations = result.failed_iterations;
            let count = result.estimate.max(1) as f64;
            let q = (count.log2() + 1.8f64.log2() - (kappa_pivot.pivot as f64).log2()).ceil();
            hashed_q.unwrap_or(q.max(1.0) as usize)
        }
        Err(_) => hashed_q.unwrap_or(1),
    };

    // The width window of Algorithm 1, clamped to 1..=|S| as the sampler
    // clamps it.
    let end = q.min(sampling_set.len()).max(1);
    let start = q.saturating_sub(3).max(1).min(end);
    let family = XorHashFamily::new(sampling_set.clone());
    let mut rng = StdRng::seed_from_u64(seed ^ request);
    for index in 0..PROBE_CELLS {
        let width = start + index % (end - start + 1);
        let (hash, span) = log.record("hashing.XorHashFamily::sample", None, request, || {
            family.sample(width, &mut rng)
        });
        probe.draws_us.push(span_micros(log, span));
        let clauses = hash.to_xor_clauses();
        probe
            .xor_lens
            .extend(clauses.iter().map(|c| c.len() as f64));
        let before = *solver.stats();
        let (outcome, span) = log.record("satsolver.enumerate_cell", None, request, || {
            enumerate_cell(&mut solver, &sampling_set, &clauses, bound, &budget)
        });
        let after = solver.stats();
        probe.cells.push(Cell {
            ms: span_micros(log, span) / 1e3,
            propagations: after.propagations - before.propagations,
            conflicts: after.conflicts - before.conflicts,
            witnesses: outcome.len(),
        });
    }
    probe
}

fn span_micros(log: &SpanLog, id: u64) -> f64 {
    log.spans()
        .iter()
        .rev()
        .find(|span| span.id == id)
        .map_or(0.0, |span| span.micros())
}

/// Per-layer counters gathered over one run.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Per-sample wall time of every in-process sample, in ms.
    pub sample_ms: Vec<f64>,
    /// BSAT calls issued by the samples of the served or submitted path.
    pub bsat_calls: u64,
    /// Samples of the served or submitted path.
    pub samples: u64,
    /// Witnesses of the served or submitted path.
    pub witnesses: u64,
    /// Per-item queue wait in the service scheduler, in ms.
    pub queue_wait_ms: Vec<f64>,
    /// Work-stealing steals over all requests.
    pub steals: u64,
    /// Requests that reached a sampler service.
    pub requests: u64,
    /// Per-request Σ item wall / (workers × round trip).
    pub busy_shares: Vec<f64>,
    /// `Client::submit` durations, in µs.
    pub submit_us: Vec<f64>,
    /// `Client::collect` durations, in ms.
    pub collect_ms: Vec<f64>,
    /// Wire latency minus the server-reported item wall time
    /// (`WireStats::wall_micros`) divided by the workers, in ms.
    pub overhead_ms: Vec<f64>,
    /// Threads of the process at the end of the timed phase.
    pub threads: f64,
    /// Prepared services in the daemon's registry at the end.
    pub registry_services: f64,
    /// Direct layer calls, one per probed formula.
    pub probes: Vec<FormulaProbe>,
}

impl Layers {
    /// Folds the statistics of in-process samples into the core.sample
    /// counters.
    pub fn add_samples(&mut self, outcomes: &[SampleOutcome]) {
        for outcome in outcomes {
            self.sample_ms
                .push(outcome.stats.wall_time.as_secs_f64() * 1e3);
        }
    }

    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let probes = &self.probes;
        let cells: Vec<Cell> = probes
            .iter()
            .flat_map(|p| p.cells.iter().copied())
            .collect();
        let cell_ms: Vec<f64> = cells.iter().map(|c| c.ms).collect();
        let per_cell = |f: fn(&Cell) -> f64| mean(&cells.iter().map(f).collect::<Vec<_>>());
        let draws: Vec<f64> = probes
            .iter()
            .flat_map(|p| p.draws_us.iter().copied())
            .collect();
        let xor_lens: Vec<f64> = probes
            .iter()
            .flat_map(|p| p.xor_lens.iter().copied())
            .collect();
        let counted: Vec<&FormulaProbe> =
            probes.iter().filter(|p| p.approxmc_s.is_some()).collect();
        let sat: Vec<&FormulaProbe> = probes.iter().filter(|p| p.enumerated.is_some()).collect();
        let of = |set: &[&FormulaProbe], f: fn(&FormulaProbe) -> f64| {
            set.iter().map(|p| f(p)).collect::<Vec<_>>()
        };
        let all: Vec<&FormulaProbe> = probes.iter().collect();
        let enumerated = sat.iter().filter(|p| p.enumerated == Some(true)).count();
        vec![
            Metric::new("satsolver.cell_ms_p50", "ms", median(&cell_ms)),
            Metric::new(
                "satsolver.cell_ms_p90",
                "ms",
                percentile(&cell_ms, 90.0).unwrap_or(0.0),
            ),
            Metric::new(
                "satsolver.propagations_per_cell",
                "count",
                per_cell(|c| c.propagations as f64),
            ),
            Metric::new(
                "satsolver.conflicts_per_cell",
                "count",
                per_cell(|c| c.conflicts as f64),
            ),
            Metric::new(
                "satsolver.witnesses_per_cell",
                "count",
                per_cell(|c| c.witnesses as f64),
            ),
            Metric::new("hashing.draw_us", "us", median(&draws)),
            Metric::new("hashing.xor_len_avg", "count", mean(&xor_lens)),
            Metric::new(
                "counting.approxmc_s",
                "s",
                median(&of(&counted, |p| p.approxmc_s.unwrap_or(0.0))),
            ),
            Metric::new(
                "counting.bsat_calls",
                "count",
                mean(&of(&counted, |p| p.approxmc_bsat_calls as f64)),
            ),
            Metric::new(
                "counting.failed_iterations",
                "count",
                mean(&of(&counted, |p| p.approxmc_failed_iterations as f64)),
            ),
            Metric::new("cnf.parse_ms", "ms", median(&of(&all, |p| p.parse_ms))),
            Metric::new("core.prepare_s", "s", median(&of(&all, |p| p.prepare_s))),
            Metric::new(
                "core.prepare_self_s",
                "s",
                median(&of(&all, FormulaProbe::prepare_self_s)),
            ),
            Metric::new(
                "core.enumerated_share",
                "ratio",
                ratio(enumerated as f64, sat.len() as f64),
            ),
            Metric::new(
                "core.bsat_calls_per_sample",
                "count",
                ratio(self.bsat_calls as f64, self.samples as f64),
            ),
            Metric::new(
                "core.accept_ratio",
                "ratio",
                ratio(self.witnesses as f64, self.bsat_calls as f64),
            ),
            Metric::new("core.sample_ms_p50", "ms", median(&self.sample_ms)),
            Metric::new(
                "core.sample_ms_p90",
                "ms",
                percentile(&self.sample_ms, 90.0).unwrap_or(0.0),
            ),
            Metric::new(
                "core.service.queue_wait_ms_p50",
                "ms",
                median(&self.queue_wait_ms),
            ),
            Metric::new(
                "core.service.queue_wait_ms_p90",
                "ms",
                percentile(&self.queue_wait_ms, 90.0).unwrap_or(0.0),
            ),
            Metric::new(
                "core.service.steals_per_request",
                "count",
                ratio(self.steals as f64, self.requests as f64),
            ),
            Metric::new("core.service.busy_share", "ratio", mean(&self.busy_shares)),
            Metric::new("net.submit_us", "us", median(&self.submit_us)),
            Metric::new("net.collect_ms", "ms", median(&self.collect_ms)),
            Metric::new("net.overhead_ms", "ms", median(&self.overhead_ms)),
            Metric::new("net.threads", "count", self.threads),
            Metric::new("net.registry_services", "count", self.registry_services),
        ]
    }

    /// Human-readable shares of the enclosing calls: what the probed
    /// layers take of a prepare and of a sample.
    pub fn shares(&self) -> Vec<String> {
        let sum = |probes: &[&FormulaProbe], f: fn(&FormulaProbe) -> f64| {
            probes.iter().map(|p| f(p)).sum::<f64>()
        };
        let all: Vec<&FormulaProbe> = self.probes.iter().collect();
        let hashed: Vec<&FormulaProbe> = all
            .iter()
            .copied()
            .filter(|p| p.enumerated == Some(false))
            .collect();
        let prepare = sum(&hashed, |p| p.prepare_s);
        let cells = mean(
            &self
                .probes
                .iter()
                .flat_map(|p| p.cells.iter().map(|c| c.ms))
                .collect::<Vec<_>>(),
        );
        let draws_ms = mean(
            &self
                .probes
                .iter()
                .flat_map(|p| p.draws_us.iter().map(|us| us / 1e3))
                .collect::<Vec<_>>(),
        );
        let per_sample = ratio(self.bsat_calls as f64, self.samples as f64);
        let sample_ms = mean(&self.sample_ms);
        vec![
            format!(
                "share of prepare, {} formulas: hiThresh probe {:.4}",
                all.len(),
                ratio(sum(&all, |p| p.hithresh_s), sum(&all, |p| p.prepare_s))
            ),
            format!(
                "share of prepare, {} hashed-mode formulas: approxmc {:.4}, hiThresh probe {:.4}",
                hashed.len(),
                ratio(sum(&hashed, |p| p.approxmc_s.unwrap_or(0.0)), prepare),
                ratio(sum(&hashed, |p| p.hithresh_s), prepare)
            ),
            format!(
                "share of sample, mean over samples: cells {:.4}, hash draws {:.6}",
                ratio(cells * per_sample, sample_ms),
                ratio(draws_ms * per_sample, sample_ms)
            ),
        ]
    }
}

/// Reads the process's peak resident set (`VmHWM`) in MiB and its thread
/// count from `/proc/self/status`.
pub fn process_status() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|line| line.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|value| value.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (field("VmHWM:") / 1024.0, field("Threads:"))
}

/// Seconds since `start`, as a float.
pub fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}
