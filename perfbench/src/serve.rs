//! `serve-warm` and `serve-cold`: a daemon started in-process with
//! `unigen_net::serve` on a unix socket at the default `ServeConfig`, and
//! closed-loop clients (one connection per core) that wait for each
//! request's last witness before sending the next.
//!
//! * `serve-warm` prepares one enumerated-mode formula in set-up and asks
//!   for it by fingerprint, so the cost is the wire codec, the readiness
//!   loop, per-request threads, the registry lookup and service
//!   scheduling.
//! * `serve-cold` sends every request with the inline DIMACS of a formula
//!   the daemon has never seen, so prepare dominates. Each round sends one
//!   daemon more distinct formulas than its registry holds
//!   (`max_formulas`, 64).

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use unigen::{AnySampler, BuildError, SamplerBuilder, SamplerError, WitnessSampler};
use unigen_circuit::benchmarks;
use unigen_cnf::{dimacs, CnfFormula, Var};
use unigen_instgen::{InstanceGenerator, ScaleFreeConfig, SgenConfig, TriangleFreeConfig};
use unigen_net::server::default_spec;
use unigen_net::wire::{self, WireStats};
use unigen_net::{serve, Client, ClientRequest, ServeConfig, ServerHandle};

use crate::accounting::{batch_failure, classify_error, Failure, Reply};
use crate::check::{compare, digest, digest_wire, Digest, WitnessChecker};
use crate::layers::{probe_formula, process_status, seconds_since};
use crate::trace::{traced, SpanLog};
use crate::{mix, parallel_chunks, workers, Measured, Options, OUT_DIR};

/// Witnesses per serve-warm request.
const WARM_COUNT: u64 = 16;
/// Witnesses per serve-cold request.
const COLD_COUNT: u64 = 8;
/// serve-warm set-ups per run; the reported set-up time is their median.
const SETUPS: usize = 5;
/// Warm-up requests per client before serve-warm's timed phase.
const WARMUP: u64 = 200;
/// serve-warm requests per second of `--seconds`: the reference rate.
const WARM_REQUESTS_PER_SECOND: f64 = 6500.0;
/// Equal time windows serve-warm's goodput is the median of.
const WARM_WINDOWS: usize = 10;
/// Requests per serve-cold round, each with a formula of its own: more
/// distinct formulas than the default registry capacity (64).
const COLD_REQUESTS: usize = 100;
/// serve-cold set-ups per round; the reported set-up time is the median
/// over all rounds, so that it does not rest on the host's speed at one
/// moment.
const COLD_SETUPS: usize = 3;
/// serve-cold rounds per second of `--seconds`: the reference rate.
const COLD_ROUNDS_PER_SECOND: f64 = 0.1;
/// Formulas the traced serve-cold run probes layer by layer (two blocks of
/// the rotation, so two per slot).
const COLD_PROBED: usize = 10;

/// One formula a workload sends.
struct Formula {
    text: String,
    formula: CnfFormula,
    sampling_set: Vec<Var>,
    must_be_unsat: bool,
}

impl Formula {
    fn new(text: String, must_be_unsat: bool) -> Formula {
        let formula = dimacs::parse(&text).expect("generated DIMACS parses");
        let sampling_set = formula.sampling_set_or_all();
        Formula {
            text,
            formula,
            sampling_set,
            must_be_unsat,
        }
    }
}

/// One request of the fixed list.
struct Job {
    formula: usize,
    count: u64,
    master_seed: u64,
    request: ClientRequest,
}

/// Server-side counters of one batch, from its `Done` frame.
#[derive(Debug, Clone, Copy, Default)]
struct Served {
    bsat_calls: u32,
    steals: u32,
    queue_wait_micros: u32,
    wall_micros: u32,
}

impl Served {
    fn of(stats: &WireStats) -> Served {
        let narrow = |value: u64| u32::try_from(value).unwrap_or(u32::MAX);
        Served {
            bsat_calls: narrow(stats.bsat_calls),
            steals: narrow(stats.steals),
            queue_wait_micros: narrow(stats.queue_wait_micros),
            wall_micros: narrow(stats.wall_micros),
        }
    }
}

/// One request as the client saw it, in fixed-size fields: a client keeps
/// one per request through the timed phase, so they count towards the
/// process's peak memory.
struct Record {
    formula: u32,
    count: u32,
    master_seed: u64,
    /// Seconds from the start of the timed phase to the last witness.
    finished_s: f32,
    submit_us: f32,
    collect_ms: f32,
    latency_ms: f64,
    reply: Reply,
    /// `None` for a malformed batch.
    digest: Option<Digest>,
    served: Served,
}

fn socket_path() -> PathBuf {
    Path::new(OUT_DIR).join(format!("serve-{}.sock", std::process::id()))
}

fn start_daemon(path: &Path, preload: Vec<String>) -> ServerHandle {
    fs::create_dir_all(OUT_DIR).expect("output directory is writable");
    let _ = fs::remove_file(path);
    serve(ServeConfig {
        unix: Some(path.to_path_buf()),
        preload,
        quiet: true,
        ..ServeConfig::default()
    })
    .expect("the daemon starts")
}

fn connect(path: &Path, clients: usize) -> Vec<Client> {
    (0..clients)
        .map(|_| Client::connect_unix(path).expect("the daemon accepts connections"))
        .collect()
}

/// Runs `clients` closed loops over the job list until `jobs` runs out or
/// `deadline` passes.
fn drive(
    path: &Path,
    clients: Vec<Client>,
    formulas: &[Formula],
    jobs: &(dyn Fn(u64) -> Option<Job> + Sync),
    deadline: Option<Instant>,
    log: &mut Option<SpanLog>,
) -> Vec<Record> {
    let next = AtomicU64::new(0);
    let phase = Instant::now();
    let results: Vec<(Vec<Record>, Option<SpanLog>)> = thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(n, client)| {
                let thread_log = log.as_ref().map(|log| log.fork(n as u64 + 1));
                let next = &next;
                scope.spawn(move || {
                    client_loop(
                        path, phase, client, formulas, jobs, next, deadline, thread_log,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("a client thread panicked"))
            .collect()
    });
    let mut records = Vec::new();
    for (mut part, thread_log) in results {
        records.append(&mut part);
        if let (Some(log), Some(thread_log)) = (log.as_mut(), thread_log) {
            log.absorb(thread_log);
        }
    }
    records
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    path: &Path,
    phase: Instant,
    mut client: Client,
    formulas: &[Formula],
    jobs: &(dyn Fn(u64) -> Option<Job> + Sync),
    next: &AtomicU64,
    deadline: Option<Instant>,
    mut log: Option<SpanLog>,
) -> (Vec<Record>, Option<SpanLog>) {
    let mut records = Vec::new();
    loop {
        if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            break;
        }
        let number = next.fetch_add(1, Ordering::Relaxed);
        let Some(job) = jobs(number) else { break };
        let sent = Instant::now();
        let (submitted, parent) = traced(&mut log, "net.Client::submit", None, number, || {
            client.submit(&job.request)
        });
        let submit_us = seconds_since(sent) * 1e6;
        let collected = Instant::now();
        let result = match submitted {
            Ok(id) => {
                traced(&mut log, "net.Client::collect", parent, number, || {
                    client.collect(id)
                })
                .0
            }
            Err(err) => Err(err),
        };
        let latency_ms = seconds_since(sent) * 1e3;
        let collect_ms = seconds_since(collected) * 1e3;
        let finished_s = seconds_since(phase);
        let (reply, digest, served) = match result {
            Ok(batch) => (
                Reply::Batch,
                digest_wire(&batch, &formulas[job.formula].sampling_set).ok(),
                Served::of(&batch.stats),
            ),
            Err(err) => (classify_error(&err), None, Served::default()),
        };
        records.push(Record {
            formula: job.formula as u32,
            count: job.count as u32,
            master_seed: job.master_seed,
            finished_s: finished_s as f32,
            submit_us: submit_us as f32,
            collect_ms: collect_ms as f32,
            latency_ms,
            reply,
            digest,
            served,
        });
        if reply == Reply::Failed(Failure::Socket) {
            match Client::connect_unix(path) {
                Ok(fresh) => client = fresh,
                Err(_) => break,
            }
        }
    }
    (records, log)
}

/// The verdict on one record once its output is checked against the
/// in-process reference for its formula (`None` when that formula is
/// unsatisfiable in process). Appends the reference samples' wall times.
fn verdict(
    record: &Record,
    formula: &Formula,
    reference: Option<&mut AnySampler>,
    checker: &mut WitnessChecker,
    sample_ms: &mut Vec<f64>,
) -> Result<Option<Failure>, String> {
    match (record.reply, reference) {
        (Reply::Failed(failure), _) => Ok(Some(failure)),
        (Reply::Unsat, None) => Ok(None),
        (Reply::Unsat, Some(_)) => Err("daemon answered Unsat for a satisfiable formula".into()),
        (Reply::Batch, None) => Err("daemon sampled an unsatisfiable formula".into()),
        (Reply::Batch, Some(sampler)) => {
            if formula.must_be_unsat {
                return Err("an unsat formula came back with witnesses".into());
            }
            let wire = record.digest.ok_or(
                "malformed wire batch: chunks out of order, a payload of the wrong width or another sampling set",
            )?;
            let outcomes = sampler.sample_batch(record.count as usize, record.master_seed);
            checker.check(&outcomes)?;
            compare(&wire, &digest(&outcomes, &formula.sampling_set))?;
            sample_ms.extend(
                outcomes
                    .iter()
                    .map(|o| o.stats.wall_time.as_secs_f64() * 1e3),
            );
            // The kinds matched, so the reference's failure is the wire's.
            Ok(batch_failure(&outcomes))
        }
    }
}

/// Prepares the in-process reference for `formula` with the daemon's
/// default spec; `None` when the formula is unsatisfiable.
fn reference(formula: &Formula) -> Result<Option<AnySampler>, String> {
    match SamplerBuilder::unigen(&formula.formula)
        .seed(default_spec().prepare_seed)
        .build()
    {
        Ok(sampler) => Ok(Some(sampler)),
        Err(BuildError::Prepare(SamplerError::Unsatisfiable)) => Ok(None),
        Err(err) => Err(format!("in-process prepare failed: {err}")),
    }
}

type Reference = Result<Option<AnySampler>, String>;

/// Checks every record and folds it into `measured`, outside the timed
/// phase and on one thread per core.
fn account(records: Vec<Record>, formulas: &[Formula], measured: &mut Measured) {
    // One in-process reference per formula that got an answer.
    let mut answered: Vec<usize> = records
        .iter()
        .filter(|r| matches!(r.reply, Reply::Batch | Reply::Unsat))
        .map(|r| r.formula as usize)
        .collect();
    answered.sort_unstable();
    answered.dedup();
    let references: HashMap<usize, Reference> = parallel_chunks(&answered, |part| {
        part.iter()
            .map(|&index| (index, reference(&formulas[index])))
            .collect()
    })
    .into_iter()
    .collect();

    // Each thread clones the references it needs once.
    let checked = parallel_chunks(&records, |part| {
        let mut samplers: HashMap<usize, (Reference, WitnessChecker)> = HashMap::new();
        let mut sample_ms = Vec::new();
        let verdicts: Vec<Result<Option<Failure>, String>> = part
            .iter()
            .map(|record| {
                if let Reply::Failed(failure) = record.reply {
                    return Ok(Some(failure));
                }
                let index = record.formula as usize;
                let formula = &formulas[index];
                let (sampler, checker) = samplers.entry(index).or_insert_with(|| {
                    (
                        references[&index].clone(),
                        WitnessChecker::new(&formula.formula),
                    )
                });
                match sampler {
                    Ok(sampler) => {
                        verdict(record, formula, sampler.as_mut(), checker, &mut sample_ms)
                    }
                    Err(detail) => Err(detail.clone()),
                }
            })
            .collect();
        vec![(verdicts, sample_ms)]
    });
    let mut verdicts = Vec::with_capacity(records.len());
    for (part, sample_ms) in checked {
        verdicts.extend(part);
        measured.layers.sample_ms.extend(sample_ms);
    }

    let workers = workers() as f64;
    for (record, result) in records.into_iter().zip(verdicts) {
        let verdict = result.unwrap_or_else(|detail| {
            measured
                .wrong
                .push(format!("request {}: {detail}", record.master_seed));
            Some(Failure::WrongOutput)
        });
        measured.tally.record(verdict);
        if verdict.is_some() {
            continue;
        }
        measured.latencies_ms.push(record.latency_ms);
        let layers = &mut measured.layers;
        layers.submit_us.push(f64::from(record.submit_us));
        layers.collect_ms.push(f64::from(record.collect_ms));
        let Some(digest) = &record.digest else {
            continue;
        };
        let witnesses = u64::from(digest.witnesses);
        let count = u64::from(digest.outcomes);
        measured.witnesses += witnesses;
        measured.attempts += count;
        measured
            .completions
            .push((f64::from(record.finished_s), witnesses));
        let stats = &record.served;
        let wall_ms = f64::from(stats.wall_micros) / 1e3;
        layers.bsat_calls += u64::from(stats.bsat_calls);
        layers.samples += count;
        layers.witnesses += witnesses;
        layers
            .queue_wait_ms
            .push(f64::from(stats.queue_wait_micros) / 1e3 / count.max(1) as f64);
        layers.steals += u64::from(stats.steals);
        layers.requests += 1;
        layers
            .busy_shares
            .push(wall_ms / (workers * record.latency_ms).max(1e-12));
        // The server's sample work, spread over the service's workers.
        layers
            .overhead_ms
            .push(record.latency_ms - wall_ms / workers);
    }
}

/// Reads the daemon's registry size and the process's thread count at the
/// end of the timed phase.
fn end_of_phase(path: &Path, measured: &mut Measured) {
    let (peak_rss_mb, threads) = process_status();
    measured.peak_rss_mb = peak_rss_mb;
    measured.layers.threads = threads;
    if let Ok(health) = Client::connect_unix(path).and_then(|mut client| client.health()) {
        measured.layers.registry_services = health.services as f64;
    }
}

/// Runs `serve-warm` once.
pub fn run_warm(options: &Options, mut log: Option<SpanLog>) -> Measured {
    let path = socket_path();
    let clients = workers();
    let mut setups = Vec::new();
    let mut running: Option<(ServerHandle, Vec<Client>)> = None;
    let mut formulas = Vec::new();
    let mut fingerprint = 0;
    for _ in 0..SETUPS {
        if let Some((daemon, clients)) = running.take() {
            drop(clients);
            daemon.shutdown();
        }
        let started = Instant::now();
        let bench = benchmarks::squaring("squaring10-like", 10, 8, 0x0a10);
        let text = dimacs::to_dimacs_string(&bench.formula);
        fingerprint = wire::fingerprint(text.as_bytes(), &default_spec());
        formulas = vec![Formula::new(text.clone(), false)];
        let daemon = start_daemon(&path, vec![text]);
        let warm_jobs = |n: u64| {
            (n < WARMUP * clients as u64).then(|| by_fingerprint(fingerprint, WARM_COUNT, n))
        };
        drive(
            &path,
            connect(&path, clients),
            &formulas,
            &warm_jobs,
            None,
            &mut None,
        );
        running = Some((daemon, connect(&path, clients)));
        setups.push(seconds_since(started));
    }
    let (daemon, connections) = running.expect("at least one set-up");

    let seed = options.seed;
    let requests = options.items(WARM_REQUESTS_PER_SECOND);
    let jobs =
        |n: u64| (n < requests).then(|| by_fingerprint(fingerprint, WARM_COUNT, mix(seed, n)));
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(options.seconds * crate::OVERRUN);
    let records = drive(
        &path,
        connections,
        &formulas,
        &jobs,
        Some(deadline),
        &mut log,
    );
    let timed_s = seconds_since(started);

    let mut measured = Measured::new(setups, timed_s, 0.0);
    end_of_phase(&path, &mut measured);
    daemon.shutdown();
    account(records, &formulas, &mut measured);
    let window = timed_s / WARM_WINDOWS as f64;
    let mut witnesses = [0u64; WARM_WINDOWS];
    for &(finished_s, count) in &measured.completions {
        witnesses[((finished_s / window) as usize).min(WARM_WINDOWS - 1)] += count;
    }
    measured.rates = witnesses.iter().map(|&w| w as f64 / window).collect();
    if let Some(log) = log.as_mut() {
        let probe = probe_formula(&formulas[0].text, seed, log, 0);
        measured.layers.probes.push(probe);
    }
    measured.log = log;
    measured
}

fn by_fingerprint(fingerprint: u64, count: u64, master_seed: u64) -> Job {
    Job {
        formula: 0,
        count,
        master_seed,
        request: ClientRequest::by_fingerprint(fingerprint, count, master_seed),
    }
}

/// The net layer on a formula of a workload that otherwise bypasses it:
/// a daemon preloaded with `text` and one client sending `requests`
/// by-fingerprint requests of `count` witnesses, checked like serve-warm's.
pub fn net_probe(
    text: &str,
    count: u64,
    requests: u64,
    seed: u64,
    log: &mut Option<SpanLog>,
) -> Measured {
    let path = socket_path();
    let fingerprint = wire::fingerprint(text.as_bytes(), &default_spec());
    let formulas = vec![Formula::new(text.to_owned(), false)];
    let daemon = start_daemon(&path, vec![text.to_owned()]);
    let jobs = |n: u64| (n < requests).then(|| by_fingerprint(fingerprint, count, mix(seed, n)));
    let records = drive(&path, connect(&path, 1), &formulas, &jobs, None, log);
    let mut measured = Measured::default();
    end_of_phase(&path, &mut measured);
    daemon.shutdown();
    account(records, &formulas, &mut measured);
    measured
}

/// The serve-cold rotation: scale-free 3-SAT, two triangle-free CSPs,
/// satisfiable sgen and (one request in five) hard-unsat sgen.
fn cold_generator(slot: usize) -> (Box<dyn InstanceGenerator>, bool) {
    match slot % 5 {
        0 => (
            Box::new(ScaleFreeConfig {
                num_vars: 40,
                num_clauses: 100,
                clause_len: 3,
                exponent_quarters: 3,
            }),
            false,
        ),
        1 => (Box::new(triangle_free(16, 20)), false),
        2 => (Box::new(triangle_free(10, 12)), false),
        3 => (
            Box::new(SgenConfig {
                blocks: 8,
                unsat: false,
            }),
            false,
        ),
        _ => (
            Box::new(SgenConfig {
                blocks: 8,
                unsat: true,
            }),
            true,
        ),
    }
}

fn triangle_free(csp_vars: usize, edges: usize) -> TriangleFreeConfig {
    TriangleFreeConfig {
        csp_vars,
        domain: 3,
        edges,
        forbidden_per_edge: 3,
    }
}

/// The five slots of the rotation in an order drawn from `key`.
fn shuffled_block(key: u64) -> [usize; 5] {
    let mut block = [0, 1, 2, 3, 4];
    for i in (1..block.len()).rev() {
        let j = (mix(key, i as u64) % (i as u64 + 1)) as usize;
        block.swap(i, j);
    }
    block
}

/// `n` distinct formulas for `seed`: the rotation in blocks of five, each
/// block one formula of every slot in an order drawn from `seed`. A fixed
/// order would let the clients settle into one pattern of which formulas
/// they prepare side by side, and latency would depend on that pattern.
fn cold_formulas(seed: u64, n: usize) -> Vec<Formula> {
    let mut seen = std::collections::HashSet::new();
    let mut formulas = Vec::with_capacity(n);
    let mut draw = 0u64;
    while formulas.len() < n {
        let position = formulas.len();
        let block = shuffled_block(mix(seed ^ 0xb10c, (position / 5) as u64));
        let (generator, unsat) = cold_generator(block[position % 5]);
        draw += 1;
        let text = generator.dimacs(mix(seed, draw));
        if seen.insert(text.clone()) {
            formulas.push(Formula::new(text, unsat));
        }
    }
    formulas
}

/// Runs `serve-cold` once: a fixed number of rounds. Each round starts its
/// own daemon and sends it a list of [`COLD_REQUESTS`] new formulas, so
/// every round runs into the registry limit; no daemon is restarted while
/// its list is running.
pub fn run_cold(options: &Options, mut log: Option<SpanLog>) -> Measured {
    let path = socket_path();
    let clients = workers();
    let mut measured = Measured::default();
    let mut rounds = Vec::new();
    for round in 1..=options.items(COLD_ROUNDS_PER_SECOND) {
        if options.overran(measured.timed_s) {
            break;
        }
        let seed = mix(options.seed, round);
        let mut running: Option<(ServerHandle, Vec<Client>)> = None;
        let mut formulas = Vec::new();
        for _ in 0..COLD_SETUPS {
            if let Some((daemon, clients)) = running.take() {
                drop(clients);
                daemon.shutdown();
            }
            let started = Instant::now();
            formulas = cold_formulas(seed, COLD_REQUESTS);
            let daemon = start_daemon(&path, Vec::new());
            running = Some((daemon, connect(&path, clients)));
            measured.setups.push(seconds_since(started));
        }
        let (daemon, connections) = running.expect("at least one set-up");

        let requests: Vec<ClientRequest> = formulas
            .iter()
            .enumerate()
            .map(|(n, f)| ClientRequest::inline(&f.text, COLD_COUNT, mix(seed ^ 0xc01d, n as u64)))
            .collect();
        let jobs = |n: u64| {
            requests.get(n as usize).map(|request| Job {
                formula: n as usize,
                count: COLD_COUNT,
                master_seed: request.master_seed,
                request: request.clone(),
            })
        };
        let started = Instant::now();
        let records = drive(&path, connections, &formulas, &jobs, None, &mut log);
        let timed_s = seconds_since(started);
        measured.timed_s += timed_s;
        end_of_phase(&path, &mut measured);
        daemon.shutdown();
        rounds.push((seed, formulas, records, timed_s));
    }

    // Checks run after the last round, so that the in-process references
    // stay out of the peak memory of the timed phases.
    for (round, (seed, formulas, records, timed_s)) in rounds.into_iter().enumerate() {
        let before = measured.witnesses;
        account(records, &formulas, &mut measured);
        measured
            .rates
            .push((measured.witnesses - before) as f64 / timed_s);
        if let Some(log) = log.as_mut().filter(|_| round == 0) {
            for (n, formula) in formulas.iter().take(COLD_PROBED).enumerate() {
                let probe = probe_formula(&formula.text, seed, log, n as u64);
                measured.layers.probes.push(probe);
            }
        }
    }
    measured.log = log;
    measured
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_of_the_cold_rotation_has_each_slot_once() {
        let blocks: Vec<[usize; 5]> = (0..50).map(shuffled_block).collect();
        for block in &blocks {
            let mut sorted = *block;
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2, 3, 4]);
        }
        assert!(blocks.iter().any(|block| block != &blocks[0]));
        let formulas = cold_formulas(7, 10);
        for block in formulas.chunks(5) {
            assert_eq!(block.iter().filter(|f| f.must_be_unsat).count(), 1);
        }
    }
}
