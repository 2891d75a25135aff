//! `batch-circuit`: one in-process `SamplerService` per circuit formula,
//! prepared during set-up, and a single closed-loop submitter rotating
//! 16-sample requests over them. The net layer is bypassed; counting runs
//! only in set-up.

use std::time::Instant;

use unigen::{SampleRequest, SampleResponse, SamplerBuilder, SamplerService, ServiceConfig};
use unigen_circuit::benchmarks::{self, Benchmark};
use unigen_cnf::{dimacs, CnfFormula};

use crate::accounting::{batch_failure, Failure};
use crate::check::WitnessChecker;
use crate::layers::{probe_formula, process_status, seconds_since};
use crate::trace::{traced, SpanLog};
use crate::{mix, serve, workers, Measured, Options};

/// Samples per request.
const COUNT: usize = 16;
/// Set-ups per run; the reported set-up time is their median.
const SETUPS: usize = 3;
/// Requests the traced run sends through the daemon to measure the net
/// layer on this workload's hashed-mode squaring formula.
const NET_PROBE_REQUESTS: u64 = 32;
/// Rotations per second of `--seconds`: the reference rate.
const ROTATIONS_PER_SECOND: f64 = 0.45;

/// The rotation. `karatsuba*` is left out: its prepare alone takes 15 s or
/// more.
fn circuits() -> Vec<Benchmark> {
    vec![
        benchmarks::long_chain("llreverse-like", 12, 60, 5, 0x11ef),
        benchmarks::iscas_like("s1196-like", 18, 420, 7, 0x1196),
        benchmarks::sorter("sort5x4-like", 5, 4, 8, 0x5055),
        benchmarks::squaring("squaring10-hashed", 10, 2, 0x0a10),
    ]
}

struct Prepared {
    formula: CnfFormula,
    text: String,
    service: SamplerService,
}

fn set_up(workers: usize, log: &mut Option<SpanLog>) -> Vec<Prepared> {
    circuits()
        .into_iter()
        .map(|bench| {
            // The service prepares what a DIMACS round trip gives, the form
            // every other entry point sees.
            let text = dimacs::to_dimacs_string(&bench.formula);
            let formula = dimacs::parse(&text).expect("canonical DIMACS parses");
            let (sampler, _) = traced(log, "core.SamplerBuilder::build", None, 0, || {
                SamplerBuilder::unigen(&formula).build()
            });
            let sampler = sampler.expect("circuit formulas prepare");
            let service =
                SamplerService::try_new(sampler, ServiceConfig::default().with_workers(workers))
                    .expect("a positive worker count");
            Prepared {
                formula,
                text,
                service,
            }
        })
        .collect()
}

/// Runs the workload once.
pub fn run(options: &Options, mut log: Option<SpanLog>) -> Measured {
    let workers = workers();
    let mut setups = Vec::new();
    let mut prepared = Vec::new();
    for _ in 0..SETUPS {
        drop(prepared);
        let started = Instant::now();
        prepared = set_up(workers, &mut log);
        setups.push(seconds_since(started));
    }

    // Timed phase: a fixed number of whole rotations, so every formula
    // contributes the same number of requests.
    let mut responses: Vec<(usize, SampleResponse, f64)> = Vec::new();
    let mut rotations = Vec::new();
    let started = Instant::now();
    let mut index = 0u64;
    for _ in 0..options.items(ROTATIONS_PER_SECOND) {
        if options.overran(seconds_since(started)) {
            break;
        }
        let rotation = Instant::now();
        for (slot, entry) in prepared.iter().enumerate() {
            index += 1;
            let request = SampleRequest::new(COUNT, mix(options.seed, index));
            let sent = Instant::now();
            let (handle, parent) =
                traced(&mut log, "core.SamplerService::submit", None, index, || {
                    entry.service.submit(request)
                });
            let (response, _) =
                traced(&mut log, "core.ResponseHandle::wait", parent, index, || {
                    handle.wait()
                });
            responses.push((slot, response, seconds_since(sent) * 1e3));
        }
        rotations.push(seconds_since(rotation));
    }
    let timed_s = seconds_since(started);
    let (peak_rss_mb, threads) = process_status();

    let mut measured = Measured::new(setups, timed_s, peak_rss_mb);
    measured.layers.threads = threads;
    let mut rotation_witnesses = vec![0u64; rotations.len()];
    let mut checkers: Vec<WitnessChecker> = prepared
        .iter()
        .map(|entry| WitnessChecker::new(&entry.formula))
        .collect();
    for (n, (slot, response, latency_ms)) in responses.iter().enumerate() {
        let verdict = match checkers[*slot].check(&response.outcomes) {
            Err(detail) => {
                measured
                    .wrong
                    .push(format!("request for formula {slot}: {detail}"));
                Some(Failure::WrongOutput)
            }
            Ok(()) => batch_failure(&response.outcomes),
        };
        measured.tally.record(verdict);
        if verdict.is_some() {
            continue;
        }
        let witnesses = response.successes() as u64;
        rotation_witnesses[n / prepared.len()] += witnesses;
        measured.witnesses += witnesses;
        measured.attempts += response.outcomes.len() as u64;
        measured.latencies_ms.push(*latency_ms);

        let layers = &mut measured.layers;
        layers.add_samples(&response.outcomes);
        let stats = &response.aggregate_stats;
        layers.bsat_calls += stats.bsat_calls as u64;
        layers.samples += response.outcomes.len() as u64;
        layers.witnesses += witnesses;
        layers.queue_wait_ms.extend(
            response
                .outcomes
                .iter()
                .map(|o| o.stats.queue_wait.as_secs_f64() * 1e3),
        );
        layers.steals += stats.steals as u64;
        layers.requests += 1;
        layers.busy_shares.push(
            stats.wall_time.as_secs_f64()
                / (workers as f64 * response.round_trip.as_secs_f64()).max(1e-12),
        );
    }

    measured.rates = rotation_witnesses
        .iter()
        .zip(&rotations)
        .map(|(&witnesses, &seconds)| witnesses as f64 / seconds)
        .collect();
    if log.is_some() {
        let squaring = &prepared[prepared.len() - 1];
        let net = serve::net_probe(
            &squaring.text,
            COUNT as u64,
            NET_PROBE_REQUESTS,
            options.seed,
            &mut log,
        );
        measured.wrong.extend(net.wrong);
        let layers = &mut measured.layers;
        layers.submit_us = net.layers.submit_us;
        layers.collect_ms = net.layers.collect_ms;
        layers.overhead_ms = net.layers.overhead_ms;
        layers.registry_services = net.layers.registry_services;
    }
    if let Some(log) = log.as_mut() {
        for (slot, entry) in prepared.iter().enumerate() {
            let probe = probe_formula(&entry.text, options.seed, log, slot as u64);
            measured.layers.probes.push(probe);
        }
    }
    measured.log = log;
    measured
}
