//! Command-line front end: sample almost-uniform witnesses from a DIMACS CNF
//! file, in the spirit of the original UniGen tool.
//!
//! ```text
//! unigen_cli [OPTIONS] <FILE.cnf>
//! unigen_cli batch [OPTIONS] <FILE.cnf>
//! unigen_cli serve [--listen ADDR] [--unix PATH] [SERVE-OPTIONS] [FILE.cnf ...]
//! unigen_cli client (--connect ADDR | --unix PATH) [CLIENT-OPTIONS] [FILE.cnf]
//! ```
//!
//! `unigen_cli [batch|serve|client] --help` lists the options of a mode.
//! Every option is declared once, in the `FLAGS` table, which drives both
//! the parser and the help text.
//!
//! The `batch` subcommand drives the request/response [`SamplerService`]:
//! it builds one UniGen sampler through [`SamplerBuilder`], spawns the
//! persistent work-stealing pool once, splits `--samples` over
//! `--requests` typed [`SampleRequest`]s (request `r` uses master seed
//! `seed + r`), streams each response's witnesses as its index-ordered
//! prefix completes, and prints the per-request round-trip statistics
//! (round-trip time, total queue wait, stolen work items, and the
//! robustness counters — interrupted cells, fault-recovery retries,
//! degradations, injected faults). Requests go through the blocking
//! [`SamplerService::submit`], so a full request queue delays a submission
//! rather than failing it. The run ends with a [`unigen::ServiceHealth`]
//! summary.
//!
//! Without `batch`, `--jobs N` is the `batch` path with one request: sample
//! `i` draws its randomness from the dedicated stream derived from
//! `(seed, i)`, so the emitted witness sequence is identical for every
//! worker count (including `--jobs 1`) and equals `batch --jobs N` — unless
//! `--timeout` is also given: a per-`BSAT` cutoff fires based on each worker
//! solver's private accumulated state, which can make different samples
//! fail at different worker counts (the CLI warns when the two flags are
//! combined). Without `--jobs` or `batch`, the historical serial behaviour
//! (one RNG consumed across all samples) is preserved.
//!
//! With `--certify`, the service paths report what the workers checked:
//! each worker certifies its own clone of the prepared sampler, so the
//! summary sums the outcomes' proof checks, and any `faulted` outcome (a
//! cell whose proof failed to check) fails the run with exit code 1.
//!
//! The sampling set is taken from `c ind … 0` comment lines in the input
//! file (the convention of the original UniGen benchmark suite); without
//! them, the full support is used.

use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use unigen::{
    OutcomeKind, PreparedMode, SampleOutcome, SampleRequest, SamplerBuilder, SamplerService,
    ServiceConfig, UniGen, WitnessSampler,
};
use unigen_cnf::dimacs;
use unigen_net::client::{Client, ClientError, ClientRequest};
use unigen_net::server::{default_spec, ServeConfig};
use unigen_net::wire::ErrorCode;
use unigen_satsolver::Budget;

#[derive(Debug, Clone)]
struct CliOptions {
    file: String,
    samples: usize,
    epsilon: f64,
    seed: u64,
    timeout: Option<Duration>,
    /// `None` = historical serial sampling (unless `batch`); `Some(0)` = one
    /// worker per core; `Some(n)` = n workers (deterministic per-index
    /// streams either way).
    jobs: Option<usize>,
    /// Certified enumeration: solver-side proof logging plus the online
    /// independent checker.
    certify: bool,
    /// Write the raw proof stream here after a serial run (implies
    /// `certify`); `cargo xtask certify` re-checks it offline.
    proof_dump: Option<String>,
    verbose: bool,
    /// `batch` subcommand: drive the request/response service.
    batch: bool,
    /// Number of service requests the samples are split over (batch only).
    requests: usize,
    /// Request-queue capacity of the service (batch only).
    queue: usize,
}

#[derive(Debug, Clone, Default)]
struct ClientOptions {
    /// TCP address of the daemon (mutually exclusive with `unix`).
    connect: Option<String>,
    /// Unix-domain socket path of the daemon.
    unix: Option<PathBuf>,
    /// DIMACS file to send inline (omit when using `fingerprint`).
    file: Option<String>,
    /// Request a formula already prepared in the server's registry.
    fingerprint: Option<u64>,
    samples: u64,
    /// Master seed of the requested batch.
    seed: u64,
    epsilon: f64,
    /// Prepare-phase seed sent in the spec (`None` = server default).
    prepare_seed: Option<u64>,
    /// Per-item budget in seconds (0 on the wire = unbounded).
    timeout: Option<u64>,
    health: bool,
    /// Re-run the batch in-process and assert wire bit-identity.
    selftest: bool,
    /// Submit and cancel a second, larger request mid-stream.
    cancel_demo: bool,
    /// Send a `Shutdown` frame after everything else.
    shutdown: bool,
}

// ---------------------------------------------------------------------------
// Argument parsing: one flag table for every mode
// ---------------------------------------------------------------------------

/// How the binary runs: the first argument `batch`, `serve` or `client`
/// selects that mode; anything else samples (`sample`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Sample,
    Batch,
    Serve,
    Client,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Sample => "sample",
            Mode::Batch => "batch",
            Mode::Serve => "serve",
            Mode::Client => "client",
        }
    }

    fn synopsis(self) -> &'static str {
        match self {
            Mode::Sample => {
                "unigen_cli [OPTIONS] <FILE.cnf>\n\
                 other modes: `unigen_cli batch|serve|client --help`"
            }
            Mode::Batch => "unigen_cli batch [OPTIONS] <FILE.cnf>",
            Mode::Serve => {
                "unigen_cli serve [--listen ADDR] [--unix PATH] [SERVE-OPTIONS] [FILE.cnf ...]\n\
                 at least one of --listen / --unix is required; FILE.cnf arguments are \
                 preloaded into the registry"
            }
            Mode::Client => {
                "unigen_cli client (--connect ADDR | --unix PATH) [CLIENT-OPTIONS] [FILE.cnf]"
            }
        }
    }
}

/// What a flag takes.
enum Arg {
    /// Nothing: a switch.
    Switch(fn(&mut Parsed)),
    /// One value, shown as the placeholder in `--help`; the setter returns
    /// `None` for an invalid value.
    Value(&'static str, fn(&mut Parsed, &str) -> Option<()>),
}

/// One row of the flag table: one meaning of one flag.
struct Flag {
    name: &'static str,
    /// The modes that accept the flag with this meaning.
    modes: &'static [Mode],
    help: &'static str,
    arg: Arg,
}

/// Parses `value` into `slot`.
fn set<T: FromStr>(slot: &mut T, value: &str) -> Option<()> {
    *slot = value.parse().ok()?;
    Some(())
}

fn set_some<T: FromStr>(slot: &mut Option<T>, value: &str) -> Option<()> {
    *slot = Some(value.parse().ok()?);
    Some(())
}

fn set_positive(slot: &mut usize, value: &str) -> Option<()> {
    *slot = value.parse().ok().filter(|&n| n > 0)?;
    Some(())
}

/// Every option of every mode, in `--help` order. A flag that means
/// something else in another mode (`--jobs`, `--queue`, `--timeout`,
/// `--unix`) has one row per meaning.
#[rustfmt::skip]
static FLAGS: &[Flag] = {
    use Arg::{Switch, Value};
    use Mode::{Batch, Client, Sample, Serve};
    &[
        Flag { name: "--samples", modes: &[Sample, Batch, Client],
            help: "number of witnesses to generate [default: 10]",
            arg: Value("N", |p, v| set(&mut p.cli.samples, v)) },
        Flag { name: "--epsilon", modes: &[Sample, Batch, Client],
            help: "tolerance ε, > 1.71 [default: 6.0]",
            arg: Value("E", |p, v| set(&mut p.cli.epsilon, v)) },
        Flag { name: "--seed", modes: &[Sample, Batch, Client],
            help: "random seed [default: 1]",
            arg: Value("S", |p, v| set(&mut p.cli.seed, v)) },
        Flag { name: "--timeout", modes: &[Sample, Batch],
            help: "per-solver-call budget in seconds [default: none]",
            arg: Value("SECS", |p, v| {
                p.cli.timeout = Some(Duration::from_secs(v.parse().ok()?));
                Some(())
            }) },
        Flag { name: "--jobs", modes: &[Sample, Batch],
            help: "sample on N worker threads, 0 = all cores [default: serial]",
            arg: Value("N", |p, v| set_some(&mut p.cli.jobs, v)) },
        Flag { name: "--requests", modes: &[Batch],
            help: "split the samples over R > 0 service requests [default: 1]",
            arg: Value("R", |p, v| set_positive(&mut p.cli.requests, v)) },
        Flag { name: "--queue", modes: &[Batch],
            help: "bounded request-queue capacity, > 0 [default: 16]",
            arg: Value("N", |p, v| set_positive(&mut p.cli.queue, v)) },
        Flag { name: "--certify", modes: &[Sample, Batch],
            help: "verify a DRAT-style proof of every cell online",
            arg: Switch(|p| p.cli.certify = true) },
        Flag { name: "--proof-dump", modes: &[Sample, Batch],
            help: "write the raw proof stream to FILE (serial only; implies --certify)",
            arg: Value("FILE", |p, v| {
                p.cli.certify = true;
                set_some(&mut p.cli.proof_dump, v)
            }) },
        Flag { name: "--verbose", modes: &[Sample, Batch],
            help: "print per-sample statistics to stderr",
            arg: Switch(|p| p.cli.verbose = true) },
        Flag { name: "--listen", modes: &[Serve],
            help: "TCP listen address (e.g. 127.0.0.1:4171)",
            arg: Value("ADDR", |p, v| set_some(&mut p.serve.tcp, v)) },
        Flag { name: "--unix", modes: &[Serve],
            help: "unix-domain socket path to listen on",
            arg: Value("PATH", |p, v| set_some(&mut p.serve.unix, v)) },
        Flag { name: "--jobs", modes: &[Serve],
            help: "worker threads per prepared service [default: 0 = service default]",
            arg: Value("N", |p, v| set(&mut p.serve.workers, v)) },
        Flag { name: "--queue", modes: &[Serve],
            help: "request-queue capacity per prepared service [default: 0 = service default]",
            arg: Value("N", |p, v| set(&mut p.serve.queue_capacity, v)) },
        Flag { name: "--max-formulas", modes: &[Serve],
            help: "prepared-formula registry capacity, > 0 [default: 64]",
            arg: Value("N", |p, v| set_positive(&mut p.serve.max_formulas, v)) },
        Flag { name: "--allow-shutdown", modes: &[Serve],
            help: "honor wire Shutdown frames",
            arg: Switch(|p| p.serve.allow_shutdown = true) },
        Flag { name: "--quiet", modes: &[Serve],
            help: "suppress serve log lines",
            arg: Switch(|p| p.serve.quiet = true) },
        Flag { name: "--connect", modes: &[Client],
            help: "TCP address of the daemon",
            arg: Value("ADDR", |p, v| set_some(&mut p.client.connect, v)) },
        Flag { name: "--unix", modes: &[Client],
            help: "unix-domain socket of the daemon",
            arg: Value("PATH", |p, v| set_some(&mut p.client.unix, v)) },
        Flag { name: "--prepare-seed", modes: &[Client],
            help: "prepare-phase seed sent in the spec [default: the server's]",
            arg: Value("S", |p, v| set_some(&mut p.client.prepare_seed, v)) },
        Flag { name: "--timeout", modes: &[Client],
            help: "per-item budget in seconds [default: none]",
            arg: Value("SECS", |p, v| set_some(&mut p.client.timeout, v)) },
        Flag { name: "--fingerprint", modes: &[Client],
            help: "request by 16-hex-digit registry fingerprint instead of FILE.cnf",
            arg: Value("HEX", |p, v| {
                p.client.fingerprint = Some(u64::from_str_radix(v.trim_start_matches("0x"), 16).ok()?);
                Some(())
            }) },
        Flag { name: "--health", modes: &[Client],
            help: "print the daemon's health snapshot",
            arg: Switch(|p| p.client.health = true) },
        Flag { name: "--selftest", modes: &[Client],
            help: "also run the batch in-process and assert bit-identity (needs FILE.cnf)",
            arg: Switch(|p| p.client.selftest = true) },
        Flag { name: "--cancel-demo", modes: &[Client],
            help: "submit a second, larger request and cancel it mid-stream",
            arg: Switch(|p| p.client.cancel_demo = true) },
        Flag { name: "--shutdown", modes: &[Client],
            help: "ask the daemon to exit (needs serve --allow-shutdown)",
            arg: Switch(|p| p.client.shutdown = true) },
    ]
};

/// A parsed command line.
enum Command {
    /// `--help` or `-h`: print the mode's help on stdout.
    Help(Mode),
    /// `sample` or `batch`.
    Sample(CliOptions),
    Serve(ServeConfig),
    Client(ClientOptions),
}

/// Parser state: every mode's options at their defaults, updated by the
/// flags; [`Parsed::finish`] keeps the selected mode's.
struct Parsed {
    mode: Mode,
    cli: CliOptions,
    serve: ServeConfig,
    client: ClientOptions,
    positional: Vec<String>,
    help: bool,
}

impl Parsed {
    fn new(mode: Mode) -> Parsed {
        Parsed {
            mode,
            cli: CliOptions {
                file: String::new(),
                samples: 10,
                epsilon: 6.0,
                seed: 1,
                timeout: None,
                jobs: None,
                certify: false,
                proof_dump: None,
                verbose: false,
                batch: mode == Mode::Batch,
                requests: 1,
                queue: 16,
            },
            serve: ServeConfig::default(),
            client: ClientOptions::default(),
            positional: Vec::new(),
            help: false,
        }
    }

    /// Applies the flags in `args` and collects the positional arguments;
    /// stops at `--help`.
    fn read(&mut self, args: &[String]) -> Result<(), String> {
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--help" | "-h" => {
                    self.help = true;
                    return Ok(());
                }
                name if name.starts_with("--") => {
                    let flag = find_flag(name, self.mode)?;
                    match flag.arg {
                        Arg::Switch(set) => set(self),
                        Arg::Value(placeholder, set) => {
                            let spec = format!("`{name} {placeholder}` ({})", flag.help);
                            let value = args
                                .next()
                                .ok_or_else(|| format!("missing value for {spec}"))?;
                            set(self, value)
                                .ok_or_else(|| format!("invalid value `{value}` for {spec}"))?;
                        }
                    }
                }
                positional => self.positional.push(positional.to_string()),
            }
        }
        Ok(())
    }

    /// Applies the positional arguments and the mode's cross-flag rules.
    fn finish(self) -> Result<Command, String> {
        let Parsed {
            mode,
            mut cli,
            mut serve,
            mut client,
            positional,
            help,
        } = self;
        if help {
            return Ok(Command::Help(mode));
        }
        match mode {
            Mode::Sample | Mode::Batch => {
                let Some(file) = positional.first() else {
                    return Err(help_text(mode));
                };
                cli.file = file.clone();
                check(
                    mode,
                    &[
                        (positional.len() > 1, "pass exactly one FILE.cnf"),
                        (
                            cli.proof_dump.is_some() && (cli.batch || cli.jobs.is_some()),
                            "--proof-dump needs the serial path (no `batch`, no --jobs): worker \
                             solver clones fork the proof stream, so only the serial sampler's \
                             stream is complete",
                        ),
                    ],
                )?;
                Ok(Command::Sample(cli))
            }
            Mode::Serve => {
                for file in &positional {
                    let text = std::fs::read_to_string(file)
                        .map_err(|e| format!("cannot read preload file `{file}`: {e}"))?;
                    serve.preload.push(text);
                }
                let listener = serve.tcp.is_some() || serve.unix.is_some();
                check(mode, &[(!listener, "serve needs at least one listener")])?;
                Ok(Command::Serve(serve))
            }
            Mode::Client => {
                // `--samples`, `--seed` and `--epsilon` share their rows
                // and defaults with the sampling modes.
                client.samples = cli.samples as u64;
                client.seed = cli.seed;
                client.epsilon = cli.epsilon;
                client.file = positional.first().cloned();
                let (file, fingerprint) = (client.file.is_some(), client.fingerprint.is_some());
                check(
                    mode,
                    &[
                        (positional.len() > 1, "pass at most one FILE.cnf"),
                        (
                            client.connect.is_some() == client.unix.is_some(),
                            "client needs exactly one of --connect ADDR and --unix PATH",
                        ),
                        (
                            file && fingerprint,
                            "pass either FILE.cnf or --fingerprint, not both",
                        ),
                        (
                            !file && !fingerprint && !client.health && !client.shutdown,
                            "nothing to do: pass FILE.cnf, --fingerprint, --health, or --shutdown",
                        ),
                        (
                            client.selftest && !file,
                            "--selftest needs the FILE.cnf positional argument",
                        ),
                        (
                            client.cancel_demo && !file && !fingerprint,
                            "--cancel-demo needs FILE.cnf or --fingerprint",
                        ),
                    ],
                )?;
                Ok(Command::Client(client))
            }
        }
    }
}

/// Fails with the message of the first broken rule.
fn check(mode: Mode, rules: &[(bool, &str)]) -> Result<(), String> {
    match rules.iter().find(|(broken, _)| *broken) {
        Some((_, message)) => Err(usage_error(mode, message)),
        None => Ok(()),
    }
}

/// The row of `name` for `mode`, or an error naming the modes that take
/// the flag.
fn find_flag(name: &str, mode: Mode) -> Result<&'static Flag, String> {
    let rows = || FLAGS.iter().filter(move |flag| flag.name == name);
    if let Some(flag) = rows().find(|flag| flag.modes.contains(&mode)) {
        return Ok(flag);
    }
    let owners: Vec<&str> = rows()
        .flat_map(|flag| flag.modes)
        .map(|m| m.name())
        .collect();
    let message = if owners.is_empty() {
        format!("unknown option `{name}`")
    } else {
        format!("{name} is a `{}` option", owners.join("`/`"))
    };
    Err(usage_error(mode, message))
}

fn usage_error(mode: Mode, message: impl std::fmt::Display) -> String {
    format!(
        "{message}\nusage: {}\n(`--help` lists the options)",
        mode.synopsis()
    )
}

/// The `--help` text of `mode`, generated from [`FLAGS`].
fn help_text(mode: Mode) -> String {
    let mut text = format!("usage: {}\n\noptions:\n", mode.synopsis());
    for flag in FLAGS.iter().filter(|flag| flag.modes.contains(&mode)) {
        let spec = match flag.arg {
            Arg::Switch(_) => flag.name.to_string(),
            Arg::Value(placeholder, _) => format!("{} {placeholder}", flag.name),
        };
        text.push_str(&format!("  {spec:<18} {}\n", flag.help));
    }
    text + "  -h, --help         print this help\n"
}

fn parse(args: &[String]) -> Result<Command, String> {
    let (mode, args) = match args.first().map(String::as_str) {
        Some("batch") => (Mode::Batch, &args[1..]),
        Some("serve") => (Mode::Serve, &args[1..]),
        Some("client") => (Mode::Client, &args[1..]),
        _ => (Mode::Sample, args),
    };
    let mut parsed = Parsed::new(mode);
    parsed.read(args)?;
    parsed.finish()
}

// ---------------------------------------------------------------------------
// Sampling: `sample` and `batch`
// ---------------------------------------------------------------------------

fn run(options: &CliOptions) -> Result<(), String> {
    let formula = dimacs::parse_file(&options.file)
        .map_err(|e| format!("cannot read `{}`: {e}", options.file))?;
    let sampling_set = formula.sampling_set_or_all();
    eprintln!(
        "c parsed `{}`: {} variables, {} clauses, {} xor clauses, |S| = {}",
        options.file,
        formula.num_vars(),
        formula.num_clauses(),
        formula.num_xor_clauses(),
        sampling_set.len()
    );

    let mut budget = Budget::new();
    if let Some(timeout) = options.timeout {
        budget = budget.with_time_limit(timeout);
    }
    // The unified builder entry point (one surface for every family; this
    // front end always asks for UniGen).
    let built = SamplerBuilder::unigen(&formula)
        .epsilon(options.epsilon)
        .seed(options.seed)
        .bsat_budget(budget)
        .certify(options.certify)
        .build()
        // BuildError's Display already carries the "preparation failed" /
        // "option not supported" context.
        .map_err(|e| e.to_string())?;
    let mut sampler: UniGen = built
        .as_unigen()
        .cloned()
        .expect("a UniGen spec builds a UniGen sampler");
    match sampler.prepared_mode() {
        PreparedMode::Enumerated { witnesses } => {
            eprintln!(
                "c preparation: {} witnesses enumerated directly",
                witnesses.len()
            );
        }
        PreparedMode::Hashed { approx_count, q } => {
            eprintln!(
                "c preparation: ApproxMC estimate {approx_count}, hash widths {}..{q}",
                q.saturating_sub(3)
            );
        }
    }

    // Prints one outcome (witness line or failure marker) and returns
    // whether it was a success.
    let emit = |i: usize, outcome: &SampleOutcome| -> bool {
        let success = match &outcome.witness {
            Some(witness) => {
                // Print the witness as the projection on the sampling set in
                // DIMACS literal form, matching the original tool's output.
                let lits: Vec<String> = witness
                    .project(&sampling_set)
                    .to_lits()
                    .iter()
                    .map(|l| l.to_string())
                    .collect();
                println!("v {} 0", lits.join(" "));
                true
            }
            None => {
                // The typed failure taxonomy: a genuine ⊥ (the algorithm's
                // own reject), a budget interruption (retryable), or an
                // injected/unrecovered fault.
                println!("c sample {i} failed ({})", outcome.kind);
                false
            }
        };
        if options.verbose {
            eprintln!(
                "c sample {i}: kind={} avg_xor_len={:.1} {}",
                outcome.kind,
                outcome.stats.average_xor_length(),
                outcome.stats
            );
        }
        success
    };

    // `--jobs` without `batch` is the batch path with its default single
    // request (master seed `seed + 0`).
    if options.batch || options.jobs.is_some() {
        return run_batch(options, sampler, &emit);
    }

    // Historical serial behaviour: one RNG consumed across samples, each
    // witness streamed out as soon as it is produced (no buffering of the
    // whole run).
    let mut produced = 0usize;
    let mut rng = StdRng::seed_from_u64(options.seed);
    for i in 0..options.samples {
        let outcome = sampler.sample(&mut rng);
        produced += usize::from(emit(i, &outcome));
    }
    if options.certify {
        if let Some(err) = sampler.cert_error() {
            return Err(format!("proof certification failed: {err}"));
        }
        if let Some(steps) = sampler.certified_steps() {
            eprintln!("c certified: {steps} proof steps verified by the independent checker");
        }
    }
    if let Some(path) = &options.proof_dump {
        let bytes = sampler
            .proof_bytes()
            .map(<[u8]>::to_vec)
            .unwrap_or_default();
        std::fs::write(path, &bytes).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("c proof stream: {} bytes written to `{path}`", bytes.len());
    }
    eprintln!(
        "c produced {produced}/{} witnesses (observed success probability {:.2})",
        options.samples,
        produced as f64 / options.samples.max(1) as f64
    );
    if options.verbose {
        // The persistent incremental solver's lifetime counters, guard and
        // Gauss–Jordan counters included.
        eprintln!("c solver: {}", sampler.solver_stats());
    }
    Ok(())
}

/// The `--certify` verdict of a service run. The workers sample (and
/// certify) their own clones of the prepared sampler, so the verdict comes
/// from the outcomes: the total number of proof checks, or an error when any
/// outcome is `Faulted` (a cell whose proof failed to check, or a worker
/// that gave up).
fn certify_verdict(outcomes: &[SampleOutcome]) -> Result<usize, String> {
    let faulted = outcomes
        .iter()
        .filter(|o| o.kind == OutcomeKind::Faulted)
        .count();
    if faulted > 0 {
        return Err(format!(
            "proof certification failed: {faulted} of {} samples faulted",
            outcomes.len()
        ));
    }
    Ok(outcomes.iter().map(|o| o.stats.cert_checks).sum())
}

/// The service path (`batch`, or `--jobs` without it): drive the persistent
/// request/response service and report the round-trip statistics of every
/// request.
fn run_batch(
    options: &CliOptions,
    sampler: UniGen,
    emit: &dyn Fn(usize, &SampleOutcome) -> bool,
) -> Result<(), String> {
    if options.timeout.is_some() {
        eprintln!(
            "c warning: --timeout makes BSAT cutoffs depend on per-worker solver state, \
             so the witness sequence may differ between --jobs values"
        );
    }
    let mut config = ServiceConfig::default().with_queue_capacity(options.queue);
    if let Some(jobs) = options.jobs {
        if jobs > 0 {
            config = config.with_workers(jobs);
        }
    }
    let service = SamplerService::new(sampler, config);
    eprintln!(
        "c service: {} worker thread(s), request queue capacity {}",
        service.workers(),
        service.queue_capacity()
    );

    // Split the samples over the requests (first `remainder` requests get
    // one extra); request r draws from master seed `seed + r`, so distinct
    // requests use provably disjoint RNG stream sets. Everything is
    // submitted up front: a full request queue blocks the submission until
    // a worker takes a request.
    let base = options.samples / options.requests;
    let remainder = options.samples % options.requests;
    let handles: Vec<_> = (0..options.requests)
        .map(|r| {
            let count = base + usize::from(r < remainder);
            SampleRequest::new(count, options.seed.wrapping_add(r as u64))
        })
        .filter(|request| request.count > 0)
        .map(|request| service.submit(request))
        .collect();

    let mut produced = 0usize;
    let mut emitted = 0usize;
    let mut totals = unigen::SampleStats::default();
    let mut cert_checks = 0usize;
    for (r, mut handle) in handles.into_iter().enumerate() {
        let request = handle.request();
        for outcome in handle.by_ref() {
            produced += usize::from(emit(emitted, &outcome));
            emitted += 1;
        }
        let response = handle.wait();
        totals.accumulate(&response.aggregate_stats);
        eprintln!(
            "c request {r}: seed={} witnesses={}/{} round_trip={:?} {}",
            request.master_seed,
            response.successes(),
            request.count,
            response.round_trip,
            response.aggregate_stats
        );
        if options.certify {
            cert_checks += certify_verdict(&response.outcomes)?;
        }
    }

    if options.certify {
        eprintln!("c certified: {cert_checks} proof checks verified by the independent checker");
    }
    eprintln!(
        "c produced {produced}/{} witnesses (observed success probability {:.2})",
        options.samples,
        produced as f64 / options.samples.max(1) as f64
    );
    eprintln!(
        "c service totals: {totals} worker_items={:?} worker_steals={:?}",
        service.worker_items(),
        service.worker_steals()
    );
    eprintln!("c service health: {}", service.health());
    Ok(())
}

// ---------------------------------------------------------------------------
// `serve` subcommand: run the network daemon (crates/net)
// ---------------------------------------------------------------------------

fn run_serve(config: ServeConfig) -> Result<(), String> {
    let handle = unigen_net::serve(config).map_err(|e| e.to_string())?;
    // Block until a wire `Shutdown` frame stops the loop (requires
    // --allow-shutdown) or the process is killed.
    handle.wait();
    Ok(())
}

// ---------------------------------------------------------------------------
// `client` subcommand: talk to a daemon over TCP or a unix socket
// ---------------------------------------------------------------------------

/// Print a wire witness as a DIMACS `v` line (projection on the
/// sampling set, matching the in-process front end's output).
fn print_wire_witness(sampling_set: &[u32], bits: &[bool]) {
    let lits: Vec<String> = sampling_set
        .iter()
        .zip(bits)
        .map(|(&var, &value)| {
            let lit = i64::from(var) + 1;
            if value { lit } else { -lit }.to_string()
        })
        .collect();
    println!("v {} 0", lits.join(" "));
}

/// Re-run the batch in-process with the same spec and assert the wire
/// outcomes are bit-identical — the end-to-end determinism contract.
fn run_selftest(
    options: &ClientOptions,
    batch: &unigen_net::WireBatch,
    prepare_seed: u64,
) -> Result<(), String> {
    let file = options
        .file
        .as_ref()
        .ok_or("--selftest needs the FILE.cnf positional argument")?;
    let formula = dimacs::parse_file(file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
    let sampling_set = formula.sampling_set_or_all();
    let wire_set: Vec<u32> = sampling_set.iter().map(|v| v.index() as u32).collect();
    if batch.sampling_set != wire_set {
        return Err(format!(
            "selftest: wire sampling set {:?} != local {:?}",
            batch.sampling_set, wire_set
        ));
    }
    let built = SamplerBuilder::unigen(&formula)
        .epsilon(options.epsilon)
        .seed(prepare_seed)
        .build()
        .map_err(|e| format!("selftest: in-process build failed: {e}"))?;
    let mut sampler: UniGen = built
        .as_unigen()
        .cloned()
        .expect("a UniGen spec builds a UniGen sampler");
    let reference = sampler.sample_batch(options.samples as usize, options.seed);
    if reference.len() != batch.outcomes.len() {
        return Err(format!(
            "selftest: wire batch has {} outcomes, in-process has {}",
            batch.outcomes.len(),
            reference.len()
        ));
    }
    for (i, (wire, local)) in batch.outcomes.iter().zip(&reference).enumerate() {
        if wire.kind != local.kind {
            return Err(format!(
                "selftest: outcome {i} kind mismatch: wire {} vs in-process {}",
                wire.kind, local.kind
            ));
        }
        let local_bits: Option<Vec<bool>> = local
            .witness
            .as_ref()
            .map(|model| sampling_set.iter().map(|&v| model.value(v)).collect());
        if wire.witness != local_bits {
            return Err(format!("selftest: outcome {i} witness bits differ"));
        }
    }
    eprintln!(
        "c selftest: {} outcomes bit-identical to in-process sample_batch",
        reference.len()
    );
    Ok(())
}

fn run_client(options: &ClientOptions) -> Result<(), String> {
    let mut client = match (&options.connect, &options.unix) {
        (Some(addr), None) => Client::connect_tcp(addr),
        (None, Some(path)) => Client::connect_unix(path),
        _ => unreachable!("the parser enforces exactly one endpoint"),
    }
    .map_err(|e| e.to_string())?;

    let request = match (&options.file, options.fingerprint) {
        (Some(file), None) => {
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
            Some(ClientRequest::inline(&text, options.samples, options.seed))
        }
        (None, Some(fp)) => Some(ClientRequest::by_fingerprint(
            fp,
            options.samples,
            options.seed,
        )),
        (None, None) => None,
        (Some(_), Some(_)) => unreachable!("the parser rejects both"),
    };

    if let Some(request) = request {
        let mut spec = default_spec();
        spec.epsilon_bits = Some(options.epsilon.to_bits());
        if let Some(seed) = options.prepare_seed {
            spec.prepare_seed = seed;
        }
        let mut request = request.with_spec(spec);
        if let Some(secs) = options.timeout {
            request = request.with_budget_micros(secs.saturating_mul(1_000_000));
        }

        let main_id = client.submit(&request).map_err(|e| e.to_string())?;
        // Submit the demo request *before* collecting the main one so its
        // stream is genuinely in flight when the cancel lands.
        let demo_id = if options.cancel_demo {
            let demo = ClientRequest {
                count: options.samples.saturating_mul(8).max(256),
                master_seed: options.seed.wrapping_add(1),
                ..request.clone()
            };
            Some(client.submit(&demo).map_err(|e| e.to_string())?)
        } else {
            None
        };

        let batch = client.collect(main_id).map_err(|e| e.to_string())?;
        eprintln!(
            "c client: fingerprint {:016x}, |S| = {}",
            batch.fingerprint,
            batch.sampling_set.len()
        );
        for outcome in &batch.outcomes {
            match &outcome.witness {
                Some(bits) => print_wire_witness(&batch.sampling_set, bits),
                None => println!("c sample {} failed ({})", outcome.index, outcome.kind),
            }
        }
        eprintln!(
            "c client: {} witnesses / {} requested, {}",
            batch.successes, options.samples, batch.stats
        );

        if let Some(id) = demo_id {
            client.cancel(id).map_err(|e| e.to_string())?;
            match client.collect(id) {
                Err(ClientError::Rejected {
                    code: ErrorCode::Cancelled,
                    ..
                }) => {
                    eprintln!("c cancel-demo: request {id} cancelled mid-stream");
                }
                Ok(done) => {
                    // The demo batch raced to completion before the cancel
                    // frame arrived; that is legal, just note it.
                    eprintln!(
                        "c cancel-demo: request {id} finished before the cancel landed \
                         ({} outcomes)",
                        done.outcomes.len()
                    );
                }
                Err(err) => return Err(format!("cancel-demo failed: {err}")),
            }
        }

        if options.selftest {
            run_selftest(options, &batch, spec.prepare_seed)?;
        }
    }

    if options.health {
        let health = client.health().map_err(|e| e.to_string())?;
        eprintln!("c health: {health}");
    }

    if options.shutdown {
        client.shutdown_server().map_err(|e| e.to_string())?;
        eprintln!("c shutdown: server acknowledged by closing the connection");
    }

    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run_result = match parse(&args) {
        Ok(Command::Help(mode)) => {
            print!("{}", help_text(mode));
            return ExitCode::SUCCESS;
        }
        Ok(Command::Sample(options)) => run(&options),
        Ok(Command::Serve(config)) => run_serve(config),
        Ok(Command::Client(options)) => run_client(&options),
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    match run_result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Parses a `sample`/`batch` command line into its options.
    fn parse_cli(args: &[String]) -> Result<CliOptions, String> {
        match parse(args)? {
            Command::Sample(options) => Ok(options),
            _ => Err("not a sampling command".to_string()),
        }
    }

    #[test]
    fn parses_defaults_and_file() {
        let options = parse_cli(&args(&["input.cnf"])).unwrap();
        assert_eq!(options.file, "input.cnf");
        assert_eq!(options.samples, 10);
        assert_eq!(options.epsilon, 6.0);
        assert!(!options.verbose);
    }

    #[test]
    fn parses_all_options() {
        let options = parse_cli(&args(&[
            "--samples",
            "25",
            "--epsilon",
            "3.5",
            "--seed",
            "9",
            "--timeout",
            "30",
            "--jobs",
            "4",
            "--verbose",
            "foo.cnf",
        ]))
        .unwrap();
        assert_eq!(options.samples, 25);
        assert_eq!(options.epsilon, 3.5);
        assert_eq!(options.seed, 9);
        assert_eq!(options.timeout, Some(Duration::from_secs(30)));
        assert_eq!(options.jobs, Some(4));
        assert!(options.verbose);
        assert_eq!(options.file, "foo.cnf");
    }

    #[test]
    fn jobs_defaults_to_serial_and_rejects_garbage() {
        assert_eq!(parse_cli(&args(&["a.cnf"])).unwrap().jobs, None);
        assert_eq!(
            parse_cli(&args(&["--jobs", "0", "a.cnf"])).unwrap().jobs,
            Some(0)
        );
        assert!(parse_cli(&args(&["--jobs", "many", "a.cnf"])).is_err());
        assert!(parse_cli(&args(&["--jobs"])).is_err());
    }

    #[test]
    fn batch_subcommand_parses_its_options() {
        let options = parse_cli(&args(&[
            "batch",
            "--samples",
            "40",
            "--requests",
            "4",
            "--queue",
            "2",
            "--jobs",
            "3",
            "a.cnf",
        ]))
        .unwrap();
        assert!(options.batch);
        assert_eq!(options.samples, 40);
        assert_eq!(options.requests, 4);
        assert_eq!(options.queue, 2);
        assert_eq!(options.jobs, Some(3));
        // Batch-only options are rejected without `batch`, and zero
        // requests/queue are rejected outright.
        assert!(!parse_cli(&args(&["a.cnf"])).unwrap().batch);
        assert!(parse_cli(&args(&["--requests", "4", "a.cnf"])).is_err());
        assert!(parse_cli(&args(&["--queue", "2", "a.cnf"])).is_err());
        assert!(parse_cli(&args(&["batch", "--requests", "0", "a.cnf"])).is_err());
        assert!(parse_cli(&args(&["batch", "--queue", "0", "a.cnf"])).is_err());
    }

    #[test]
    fn certify_and_proof_dump_parse_and_constrain() {
        let options = parse_cli(&args(&["--certify", "a.cnf"])).unwrap();
        assert!(options.certify);
        assert!(options.proof_dump.is_none());
        // --proof-dump implies --certify.
        let options = parse_cli(&args(&["--proof-dump", "p.bin", "a.cnf"])).unwrap();
        assert!(options.certify);
        assert_eq!(options.proof_dump.as_deref(), Some("p.bin"));
        // The dump needs the serial path: worker clones fork the stream.
        assert!(parse_cli(&args(&["--proof-dump", "p.bin", "--jobs", "2", "a.cnf"])).is_err());
        assert!(parse_cli(&args(&["batch", "--proof-dump", "p.bin", "a.cnf"])).is_err());
        assert!(parse_cli(&args(&["--proof-dump"])).is_err());
        // Plain --certify composes with both parallel paths.
        assert!(parse_cli(&args(&["--certify", "--jobs", "2", "a.cnf"])).is_ok());
        assert!(parse_cli(&args(&["batch", "--certify", "a.cnf"])).is_ok());
    }

    #[test]
    fn rejects_missing_file_and_unknown_options() {
        assert!(parse_cli(&args(&[])).is_err());
        assert!(parse_cli(&args(&["--bogus", "x.cnf"])).is_err());
        assert!(parse_cli(&args(&["a.cnf", "b.cnf"])).is_err());
        assert!(parse_cli(&args(&["--samples", "nope", "a.cnf"])).is_err());
    }

    /// A valid value for each placeholder in the flag table.
    fn example_value(placeholder: &str) -> &'static str {
        match placeholder {
            "N" | "R" | "S" | "SECS" => "2",
            "E" => "3.5",
            "FILE" => "p.bin",
            "ADDR" => "127.0.0.1:4171",
            "PATH" => "u.sock",
            "HEX" => "00000000deadbeef",
            other => panic!("no example value for placeholder {other}"),
        }
    }

    #[test]
    fn every_flag_parses_in_its_modes_and_names_them_elsewhere() {
        for flag in FLAGS {
            let mut given = vec![flag.name.to_string()];
            if let Arg::Value(placeholder, _) = flag.arg {
                given.push(example_value(placeholder).to_string());
            }
            for mode in [Mode::Sample, Mode::Batch, Mode::Serve, Mode::Client] {
                let result = Parsed::new(mode).read(&given);
                let rows = FLAGS
                    .iter()
                    .filter(|row| row.name == flag.name && row.modes.contains(&mode))
                    .count();
                if flag.modes.contains(&mode) {
                    assert_eq!(rows, 1, "{} has one meaning per mode", flag.name);
                    assert_eq!(result, Ok(()), "{} in `{}`", flag.name, mode.name());
                    if given.len() == 2 {
                        let missing = Parsed::new(mode).read(&given[..1]).unwrap_err();
                        assert!(missing.starts_with("missing value for"), "{missing}");
                    }
                } else if rows == 0 {
                    let err = result.unwrap_err();
                    assert!(err.starts_with(&format!("{} is a `", flag.name)), "{err}");
                    for owner in flag.modes {
                        assert!(err.contains(&format!("`{}`", owner.name())), "{err}");
                    }
                }
            }
        }
    }

    /// Parses a command line written as one string.
    fn parse_line(line: &str) -> Result<Command, String> {
        parse(&args(&line.split_whitespace().collect::<Vec<_>>()))
    }

    #[test]
    fn help_and_the_serve_and_client_rules() {
        assert!(matches!(parse_line("-h"), Ok(Command::Help(Mode::Sample))));
        assert!(matches!(
            parse_line("client --seed 3 --help"),
            Ok(Command::Help(Mode::Client))
        ));
        assert_eq!(parse_line("").err(), Some(help_text(Mode::Sample)));
        for (line, error) in [
            (
                "--max-formulas 2 a.cnf",
                "--max-formulas is a `serve` option",
            ),
            ("serve --quiet", "serve needs at least one listener"),
            ("client --health", "client needs exactly one of"),
            (
                "client --unix s --connect h:1 --health",
                "client needs exactly one of",
            ),
            ("client --unix s", "nothing to do"),
            (
                "client --unix s --fingerprint ff f.cnf",
                "pass either FILE.cnf or",
            ),
            (
                "client --unix s --fingerprint ff --selftest",
                "--selftest needs",
            ),
            (
                "client --unix s --health --cancel-demo",
                "--cancel-demo needs",
            ),
            ("client --unix s --fingerprint xyz", "invalid value `xyz`"),
        ] {
            let refused = parse_line(line).err().unwrap_or_default();
            assert!(refused.starts_with(error), "{line}: {refused}");
        }
        let Ok(Command::Serve(config)) = parse_line("serve --unix s --jobs 3") else {
            panic!("serve with a listener parses");
        };
        assert_eq!((config.unix, config.workers), (Some(PathBuf::from("s")), 3));
        let Ok(Command::Client(options)) =
            parse_line("client --connect h:1 --samples 16 --fingerprint 0xff")
        else {
            panic!("a fingerprint request parses");
        };
        assert_eq!(
            (options.samples, options.seed, options.epsilon),
            (16, 1, 6.0)
        );
        assert_eq!(options.fingerprint, Some(0xff));
    }

    #[test]
    fn end_to_end_on_a_temporary_file() {
        let dir = std::env::temp_dir();
        let path = dir.join("unigen_cli_smoke.cnf");
        std::fs::write(&path, "c ind 1 2 0\np cnf 3 2\n1 2 0\nx 1 3 0\n").unwrap();
        let file = path.to_string_lossy().into_owned();
        let options = parse_cli(&args(&[
            "--samples",
            "3",
            "--seed",
            "7",
            "--verbose",
            &file,
        ]))
        .unwrap();
        run(&options).unwrap();
        // Certified serial run with a proof dump, re-checked offline.
        let dump = dir.join("unigen_cli_smoke.proof");
        let certified = CliOptions {
            certify: true,
            proof_dump: Some(dump.to_string_lossy().into_owned()),
            ..options.clone()
        };
        run(&certified).unwrap();
        let formula = dimacs::parse_file(&certified.file).unwrap();
        let bytes = std::fs::read(&dump).unwrap();
        assert!(!bytes.is_empty());
        unigen_cert::Checker::check(&unigen::cert_formula(&formula), &bytes).unwrap();
        let _ = std::fs::remove_file(&dump);
        // `--jobs` without `batch` (the single-request service path), with
        // the certify verdict taken from the workers' outcomes.
        let options = CliOptions {
            jobs: Some(2),
            ..options
        };
        run(&options).unwrap();
        run(&CliOptions {
            certify: true,
            ..options.clone()
        })
        .unwrap();
        // The service-backed batch subcommand path, multiple requests.
        let options = CliOptions {
            batch: true,
            samples: 5,
            requests: 2,
            queue: 1,
            ..options
        };
        run(&options).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn certify_verdict_sums_checks_and_fails_on_a_faulted_outcome() {
        use unigen::SampleStats;
        let checked = |cert_checks| {
            SampleOutcome::of_witness(
                unigen_cnf::Model::new(vec![true]),
                SampleStats {
                    cert_checks,
                    ..SampleStats::default()
                },
            )
        };
        assert_eq!(certify_verdict(&[]), Ok(0));
        assert_eq!(certify_verdict(&[checked(2), checked(3)]), Ok(5));
        let faulted = SampleOutcome::faulted(SampleStats::default());
        let err = certify_verdict(&[checked(2), faulted]).unwrap_err();
        assert!(err.contains("1 of 2 samples faulted"), "{err}");
    }
}
