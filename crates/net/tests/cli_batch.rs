//! The determinism contract at the CLI surface: `unigen_cli --jobs N` and
//! `unigen_cli batch --jobs N` print the same witness lines for every
//! worker count, and those lines are exactly the sampling-set projections of
//! the serial reference `WitnessSampler::sample_batch(samples, seed)`.

use std::process::Command;

use unigen::{SamplerBuilder, WitnessSampler};
use unigen_cnf::dimacs;

const TOY: &str = "c ind 1 2 3 4 0\np cnf 6 5\n1 2 0\n-1 -2 0\n3 4 5 0\nx 5 6 0\n-5 6 0\n";
const SAMPLES: usize = 12;
const SEED: u64 = 3;

/// Runs the built binary and returns its `v … 0` stdout lines.
fn witness_lines(args: &[&str], file: &str) -> Vec<String> {
    let output = Command::new(env!("CARGO_BIN_EXE_unigen_cli"))
        .args(args)
        .args([
            "--samples",
            &SAMPLES.to_string(),
            "--seed",
            &SEED.to_string(),
        ])
        .arg(file)
        .output()
        .expect("unigen_cli runs");
    assert!(
        output.status.success(),
        "unigen_cli {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout)
        .expect("stdout is UTF-8")
        .lines()
        .filter(|line| line.starts_with("v "))
        .map(str::to_owned)
        .collect()
}

#[test]
fn jobs_and_batch_print_the_serial_reference_witnesses() {
    let path = std::env::temp_dir().join(format!("unigen_cli_batch_{}.cnf", std::process::id()));
    std::fs::write(&path, TOY).unwrap();
    let file = path.to_str().unwrap();

    let formula = dimacs::parse(TOY).unwrap();
    let sampling_set = formula.sampling_set_or_all();
    let mut sampler = SamplerBuilder::unigen(&formula)
        .epsilon(6.0)
        .seed(SEED)
        .build()
        .unwrap();
    let reference: Vec<String> = sampler
        .sample_batch(SAMPLES, SEED)
        .iter()
        .map(|outcome| {
            let witness = outcome
                .witness
                .as_ref()
                .expect("the toy formula is satisfiable");
            let lits: Vec<String> = witness
                .project(&sampling_set)
                .to_lits()
                .iter()
                .map(|l| l.to_string())
                .collect();
            format!("v {} 0", lits.join(" "))
        })
        .collect();
    assert_eq!(reference.len(), SAMPLES);

    for args in [
        &["--jobs", "2"][..],
        &["batch", "--jobs", "1"],
        &["--jobs", "0"],
    ] {
        assert_eq!(
            witness_lines(args, file),
            reference,
            "unigen_cli {args:?} diverged from sample_batch"
        );
    }
    let _ = std::fs::remove_file(&path);
}
