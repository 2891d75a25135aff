//! The repository benchmark: three workloads driven only through public
//! functions (`SamplerBuilder`, `SamplerService`, `unigen_net::serve` with
//! `Client`, and the `unigen_instgen` generators), every output checked.
//! `BENCHMARK.json` gates batch-circuit and serve-cold; serve-warm runs on
//! request only (see `WORKLOADS.md`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch-circuit|serve-warm|serve-cold> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! runs the workload untraced and then traced, each for half of
//! `--seconds`, prints the per-layer metrics and the traced-minus-untraced
//! overhead of each end-to-end metric, and writes the spans to
//! `.bench_out/`. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed` and `metrics`. A wrong output fails the
//! run (exit code 1).

mod accounting;
mod batch;
mod check;
mod layers;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use accounting::{Failure, Tally};
use layers::{Layers, Metric};
use stats::{median, percentile, ratio, tail_percentile};
use trace::SpanLog;

/// Where runs leave sockets and span files, relative to the checkout.
pub const OUT_DIR: &str = ".bench_out";

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process services over circuit formulas.
    BatchCircuit,
    /// A daemon serving one prepared formula by fingerprint.
    ServeWarm,
    /// A daemon receiving a new inline formula with every request.
    ServeCold,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "batch-circuit" => Some(Workload::BatchCircuit),
            "serve-warm" => Some(Workload::ServeWarm),
            "serve-cold" => Some(Workload::ServeCold),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::BatchCircuit => "batch-circuit",
            Workload::ServeWarm => "serve-warm",
            Workload::ServeCold => "serve-cold",
        }
    }
}

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input of the run is generated from.
    pub seed: u64,
    /// Sizes the timed phase: each workload's fixed list of requests lasts
    /// about this long at its reference rate.
    pub seconds: f64,
    /// Whether to make the traced run as well.
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <batch-circuit|serve-warm|serve-cold> --seed <n> --seconds <s> --trace <0|1>";

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

impl Options {
    /// Number of list items that last `--seconds` at `items_per_second`,
    /// at least one.
    pub fn items(&self, items_per_second: f64) -> u64 {
        ((self.seconds * items_per_second).round() as u64).max(1)
    }

    /// Whether a timed phase that has lasted `timed_s` seconds has run past
    /// its guard: a machine much slower than the reference one ends the
    /// list early so that a run stays within its time limit.
    pub fn overran(&self, timed_s: f64) -> bool {
        timed_s > self.seconds * OVERRUN
    }
}

/// How far past `--seconds` a timed phase may run before its list is cut.
pub const OVERRUN: f64 = 2.0;

/// Worker threads per service and client connections: one per core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to contiguous chunks of `items`, one thread per core, and
/// concatenates the results in order.
pub fn parallel_chunks<T: Sync, R: Send>(items: &[T], f: impl Fn(&[T]) -> Vec<R> + Sync) -> Vec<R> {
    let threads = workers().min(items.len()).max(1);
    let chunk = items.len().div_ceil(threads).max(1);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(move || f(part)))
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("a worker thread panicked"))
            .collect()
    })
}

/// SplitMix64 of `(seed, n)`: the per-item seeds of a run's fixed list.
pub fn mix(seed: u64, n: u64) -> u64 {
    let mut z = seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Duration of each set-up, in seconds.
    pub setups: Vec<f64>,
    /// Duration of the timed phase, in seconds.
    pub timed_s: f64,
    /// Goodput of each segment of the timed phase (a rotation, a time
    /// window or a round), in witnesses per second; the reported goodput
    /// is their median.
    pub rates: Vec<f64>,
    /// Completion time (seconds into the timed phase) and witness count of
    /// each successful request.
    pub completions: Vec<(f64, u64)>,
    /// Peak resident memory at the end of the timed phase, in MiB.
    pub peak_rss_mb: f64,
    /// Operations attempted, succeeded and failed.
    pub tally: Tally,
    /// Witnesses delivered by successful operations.
    pub witnesses: u64,
    /// Sample attempts of successful operations.
    pub attempts: u64,
    /// Latency of each successful operation, in ms.
    pub latencies_ms: Vec<f64>,
    /// Per-layer counters.
    pub layers: Layers,
    /// Why each wrong output was wrong.
    pub wrong: Vec<String>,
    /// The spans of a traced run.
    pub log: Option<SpanLog>,
}

impl Measured {
    /// A run with the given set-up times, timed-phase length and peak RSS.
    pub fn new(setups: Vec<f64>, timed_s: f64, peak_rss_mb: f64) -> Measured {
        Measured {
            setups,
            timed_s,
            peak_rss_mb,
            ..Measured::default()
        }
    }

    /// Every end-to-end metric, in `BENCHMARK.json` order.
    fn end_to_end(&self) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", "s", median(&self.setups)),
            Metric::new("witnesses_per_s", "1/s", median(&self.rates)),
            Metric::new(
                "success_rate",
                "ratio",
                ratio(self.witnesses as f64, self.attempts as f64),
            ),
            Metric::new("succeeded_share", "ratio", self.tally.succeeded_share()),
            Metric::new(
                "request_p50_ms",
                "ms",
                percentile(&self.latencies_ms, 50.0).unwrap_or(0.0),
            ),
            Metric::new(
                "request_p90_ms",
                "ms",
                percentile(&self.latencies_ms, 90.0).unwrap_or(0.0),
            ),
            Metric::new("peak_rss_mb", "MiB", self.peak_rss_mb),
        ]
    }

    /// Report lines beyond the metrics: failures by class and the highest
    /// latency percentile with ten samples beyond it.
    fn details(&self) -> Vec<String> {
        let n = self.latencies_ms.len();
        let tail = match tail_percentile(n) {
            Some(p) => format!(
                "p{p} {:.4} ms",
                percentile(&self.latencies_ms, p).unwrap_or(0.0)
            ),
            None => "no percentile has ten samples beyond it".to_owned(),
        };
        vec![
            self.tally.summary(),
            format!(
                "latency over {n} successful requests: {tail}; timed phase {:.3} s; {} witnesses; segment rates {:?}; set-ups {:?}",
                self.timed_s, self.witnesses, self.rates, self.setups
            ),
        ]
    }
}

fn run(options: &Options, log: Option<SpanLog>) -> Measured {
    match options.workload {
        Workload::BatchCircuit => batch::run(options, log),
        Workload::ServeWarm => serve::run_warm(options, log),
        Workload::ServeCold => serve::run_cold(options, log),
    }
}

/// Formats a metric value with every digit it has.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (n, metric) in metrics.iter().enumerate() {
        let _ = write!(
            body,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if n == 0 { "" } else { ", " },
            metric.name,
            number(metric.value),
            metric.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

fn print_metrics(label: &str, metrics: &[Metric]) {
    for metric in metrics {
        println!(
            "{label} {} {} {}",
            metric.name,
            number(metric.value),
            metric.unit
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = options.workload.name();
    println!(
        "perfbench workload {name} seed {} seconds {} trace {} cores {}",
        options.seed,
        options.seconds,
        u8::from(options.trace),
        workers()
    );

    // A traced run makes two runs, each half as long, so that their timed
    // phases together last about `--seconds`.
    let options = if options.trace {
        Options {
            seconds: options.seconds / 2.0,
            ..options
        }
    } else {
        options
    };
    let untraced = run(&options, None);
    let end_to_end = untraced.end_to_end();
    print_metrics("metric", &end_to_end);
    for line in untraced.details() {
        println!("{line}");
    }
    let mut runs = vec![&untraced];

    let traced_run;
    let reported = if options.trace {
        traced_run = run(&options, Some(SpanLog::new(Instant::now(), 0)));
        for (plain, traced) in end_to_end.iter().zip(traced_run.end_to_end()) {
            let delta = traced.value - plain.value;
            // The process's high-water mark covers both runs.
            let note = if plain.name == "peak_rss_mb" {
                " (high-water mark of both runs)"
            } else {
                ""
            };
            println!(
                "overhead {} traced {} untraced {} diff {} {} ({:+.2}%){note}",
                plain.name,
                number(traced.value),
                number(plain.value),
                number(delta),
                plain.unit,
                100.0 * ratio(delta, plain.value)
            );
        }
        let per_layer = traced_run.layers.metrics();
        print_metrics("layer", &per_layer);
        for line in traced_run.layers.shares() {
            println!("{line}");
        }
        if let Some(log) = &traced_run.log {
            let path = format!("{OUT_DIR}/trace-{name}-seed{}.jsonl", options.seed);
            match std::fs::create_dir_all(OUT_DIR)
                .and_then(|()| std::fs::write(&path, log.to_json_lines()))
            {
                Ok(()) => println!("spans {} written to {path}", log.spans().len()),
                Err(err) => eprintln!("perfbench: cannot write {path}: {err}"),
            }
        }
        runs.push(&traced_run);
        per_layer
    } else {
        end_to_end
    };

    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    for measured in &runs {
        for detail in &measured.wrong {
            eprintln!("perfbench: wrong output: {detail}");
        }
        correct &= measured.tally.count(Failure::WrongOutput) == 0 && measured.wrong.is_empty();
        attempted += measured.tally.attempted;
        failed += measured.tally.failed();
    }
    println!(
        "{}",
        result_json(correct, attempted.max(1), failed, &reported)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn options_parse_the_command_line() {
        let options = parse_options(&args(
            "--workload serve-cold --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(options.workload, Workload::ServeCold);
        assert_eq!(options.seed, 7);
        assert_eq!(options.seconds, 10.0);
        assert!(options.trace);
        assert!(parse_options(&args("--workload nope --seed 1")).is_err());
        assert!(parse_options(&args("--seed 1")).is_err());
        assert!(parse_options(&args("--workload serve-warm --seed 1 --trace 2")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let json = result_json(true, 3, 1, &[Metric::new("setup_s", "s", 0.8127)]);
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn mix_spreads_nearby_inputs() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(0, 1), mix(1, 0));
        assert_eq!(mix(5, 9), mix(5, 9));
    }
}
