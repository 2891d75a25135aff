//! End-to-end wire tests: a real daemon on real sockets, exercised by
//! the blocking [`Client`] and by raw byte-level connections.
//!
//! The central assertion is the determinism contract: for a fixed
//! `(formula, spec, count, master_seed)`, the witness stream a client
//! receives over the wire is bit-identical to
//! [`WitnessSampler::sample_batch`] run in-process — per request, at
//! any concurrency.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

use unigen::{SampleOutcome, SampleStats, SamplerBuilder, UniGen, WitnessSampler};
use unigen_cnf::dimacs;
use unigen_net::client::{Client, ClientError, ClientRequest};
use unigen_net::server::default_spec;
use unigen_net::{serve, Decoder, ErrorCode, Frame, ServeConfig, PROTOCOL_VERSION};

const DIMACS: &str = "p cnf 5 3\n1 2 0\n-3 4 0\n2 5 0\n";
/// 168 models over 8 variables: too many to enumerate at `EPSILON`, so
/// each sample draws hash cells and issues BSAT calls.
const HASHED_DIMACS: &str = "p cnf 8 2\n1 2 3 0\n-4 5 0\n";
const EPSILON: f64 = 6.0;

fn unique_socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("unigen-net-{tag}-{}.sock", std::process::id()))
}

fn unix_config(tag: &str) -> ServeConfig {
    ServeConfig {
        unix: Some(unique_socket_path(tag)),
        quiet: true,
        ..ServeConfig::default()
    }
}

/// The request spec every test uses (explicit ε so the in-process
/// reference below is guaranteed to mirror it).
fn test_spec() -> unigen_net::wire::WireSpec {
    let mut spec = default_spec();
    spec.epsilon_bits = Some(EPSILON.to_bits());
    spec
}

/// In-process reference batch of `text` with the same spec: the outcomes
/// whose projected bits every wire stream must reproduce exactly.
fn reference_outcomes(text: &str, count: usize, master_seed: u64) -> Vec<SampleOutcome> {
    let formula = dimacs::parse(text).expect("test formula parses");
    let built = SamplerBuilder::unigen(&formula)
        .epsilon(EPSILON)
        .seed(test_spec().prepare_seed)
        .build()
        .expect("test formula prepares");
    let mut sampler: UniGen = built
        .as_unigen()
        .cloned()
        .expect("a UniGen spec builds a UniGen sampler");
    sampler.sample_batch(count, master_seed)
}

fn assert_batch_matches_reference(
    batch: &unigen_net::WireBatch,
    text: &str,
    count: usize,
    master_seed: u64,
) {
    let sampling_set = dimacs::parse(text)
        .expect("test formula parses")
        .sampling_set_or_all();
    let reference = reference_outcomes(text, count, master_seed);
    assert_eq!(
        batch.outcomes.len(),
        reference.len(),
        "wire batch length diverged from in-process sample_batch"
    );
    for (i, (wire, local)) in batch.outcomes.iter().zip(&reference).enumerate() {
        let bits: Option<Vec<bool>> = local
            .witness
            .as_ref()
            .map(|model| sampling_set.iter().map(|&v| model.value(v)).collect());
        assert_eq!(wire.index, i as u64, "stream must be index-ordered");
        assert_eq!(wire.kind, local.kind, "outcome {i} kind diverged");
        assert_eq!(wire.witness, bits, "outcome {i} witness bits diverged");
    }
}

#[test]
fn unix_round_trip_is_bit_identical_and_fingerprint_reusable() {
    let handle = serve(unix_config("roundtrip")).expect("daemon starts");
    let path = handle.unix_path().expect("unix listener bound").clone();

    let mut client = Client::connect_unix(&path).expect("client connects");
    let request = ClientRequest::inline(HASHED_DIMACS, 16, 42).with_spec(test_spec());
    let batch = client.sample(&request).expect("batch streams");
    assert_batch_matches_reference(&batch, HASHED_DIMACS, 16, 42);
    // With an unlimited budget the BSAT calls depend only on each index's
    // hash draws, so the `Done` total equals the in-process one.
    let reference: SampleStats = reference_outcomes(HASHED_DIMACS, 16, 42)
        .iter()
        .map(|o| &o.stats)
        .sum();
    assert_eq!(batch.stats.bsat_calls, reference.bsat_calls as u64);
    assert!(batch.stats.bsat_calls > 0);
    assert_eq!(
        (
            batch.stats.retries,
            batch.stats.degradations,
            batch.stats.faults_injected
        ),
        (0, 0, 0)
    );

    // Re-request by fingerprint: no DIMACS on the wire, same service
    // entry, and a different master seed still matches in-process.
    let again = client
        .sample(&ClientRequest::by_fingerprint(batch.fingerprint, 8, 7).with_spec(test_spec()))
        .expect("fingerprint re-request streams");
    assert_eq!(again.fingerprint, batch.fingerprint);
    assert_batch_matches_reference(&again, HASHED_DIMACS, 8, 7);

    handle.shutdown();
}

#[test]
fn concurrent_tcp_clients_each_get_bit_identical_batches() {
    let config = ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        quiet: true,
        ..ServeConfig::default()
    };
    let handle = serve(config).expect("daemon starts");
    let addr = handle.tcp_addr().expect("tcp listener bound").to_string();

    let threads: Vec<_> = (0..4u64)
        .map(|i| {
            let addr = addr.clone();
            conc::thread::spawn(move || {
                let master_seed = 100 + i;
                let mut client = Client::connect_tcp(&addr).expect("client connects");
                let request = ClientRequest::inline(DIMACS, 12, master_seed).with_spec(test_spec());
                let batch = client.sample(&request).expect("batch streams");
                (batch, master_seed)
            })
        })
        .collect();
    for thread in threads {
        let (batch, master_seed) = thread.join().expect("client thread");
        assert_batch_matches_reference(&batch, DIMACS, 12, master_seed);
    }

    handle.shutdown();
}

#[test]
fn future_protocol_version_is_rejected() {
    let handle = serve(unix_config("version")).expect("daemon starts");
    let path = handle.unix_path().expect("unix listener bound").clone();

    let mut stream = UnixStream::connect(&path).expect("raw connect");
    stream
        .write_all(
            &Frame::Hello {
                version: PROTOCOL_VERSION + 98,
            }
            .encode(),
        )
        .expect("hello sent");
    let mut decoder = Decoder::new();
    let mut bytes = Vec::new();
    stream
        .read_to_end(&mut bytes)
        .expect("server closes after rejecting");
    decoder.feed(&bytes);
    match decoder.next_frame() {
        Ok(Some(Frame::Error { id: 0, code, .. })) => {
            assert_eq!(code, ErrorCode::UnsupportedVersion);
        }
        other => panic!("expected UnsupportedVersion error frame, got {other:?}"),
    }

    handle.shutdown();
}

#[test]
fn malformed_bytes_get_a_typed_error_then_close() {
    let handle = serve(unix_config("malformed")).expect("daemon starts");
    let path = handle.unix_path().expect("unix listener bound").clone();

    let mut stream = UnixStream::connect(&path).expect("raw connect");
    stream
        .write_all(
            &Frame::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode(),
        )
        .expect("hello sent");
    // A length prefix claiming a frame larger than MAX_FRAME_LEN.
    stream
        .write_all(&[0xff, 0xff, 0xff, 0xff, 0x7f])
        .expect("garbage sent");
    let mut decoder = Decoder::new();
    let mut bytes = Vec::new();
    stream
        .read_to_end(&mut bytes)
        .expect("server closes after the error");
    decoder.feed(&bytes);
    let mut saw_malformed = false;
    while let Ok(Some(frame)) = decoder.next_frame() {
        if let Frame::Error { id: 0, code, .. } = frame {
            assert_eq!(code, ErrorCode::Malformed);
            saw_malformed = true;
        }
    }
    assert!(
        saw_malformed,
        "server must send a typed Malformed error before closing"
    );

    handle.shutdown();
}

#[test]
fn unsat_formula_yields_a_typed_unsat_error() {
    let config = ServeConfig {
        max_formulas: 2,
        ..unix_config("unsat")
    };
    let handle = serve(config).expect("daemon starts");
    let path = handle.unix_path().expect("unix listener bound").clone();

    let mut client = Client::connect_unix(&path).expect("client connects");
    // Three distinct unsat formulas, each sent twice (the repeat hits the
    // cached failure), against a registry of two slots: the third clears
    // the failure cache, which holds two failures at most.
    for unsat in [
        "p cnf 1 2\n1 0\n-1 0\n",
        "p cnf 2 2\n2 0\n-2 0\n",
        "p cnf 3 2\n3 0\n-3 0\n",
    ] {
        for _ in 0..2 {
            let request = ClientRequest::inline(unsat, 4, 1).with_spec(test_spec());
            match client.sample(&request) {
                Err(ClientError::Rejected { code, .. }) => assert_eq!(code, ErrorCode::Unsat),
                other => panic!("expected a typed Unsat rejection, got {other:?}"),
            }
        }
    }
    // The connection survives a rejected request, and failed prepares
    // take no registry slot.
    let batch = client
        .sample(&ClientRequest::inline(DIMACS, 4, 9).with_spec(test_spec()))
        .expect("connection still usable");
    assert_batch_matches_reference(&batch, DIMACS, 4, 9);

    handle.shutdown();
}

#[test]
fn cancel_mid_stream_terminates_and_connection_stays_usable() {
    let handle = serve(unix_config("cancel")).expect("daemon starts");
    let path = handle.unix_path().expect("unix listener bound").clone();

    let mut client = Client::connect_unix(&path).expect("client connects");
    // Large enough that the cancel frame usually lands mid-stream; the
    // contract allows either outcome of the race, and both must leave
    // the connection usable.
    let big = ClientRequest::inline(DIMACS, 5_000, 3).with_spec(test_spec());
    let id = client.submit(&big).expect("submitted");
    client.cancel(id).expect("cancel sent");
    match client.collect(id) {
        Err(ClientError::Rejected { code, .. }) => assert_eq!(code, ErrorCode::Cancelled),
        Ok(batch) => assert_eq!(
            batch.outcomes.len(),
            5_000,
            "a completed stream is complete"
        ),
        Err(other) => panic!("unexpected failure collecting a cancelled request: {other}"),
    }

    let batch = client
        .sample(&ClientRequest::inline(DIMACS, 6, 11).with_spec(test_spec()))
        .expect("connection usable after cancel");
    assert_batch_matches_reference(&batch, DIMACS, 6, 11);

    handle.shutdown();
}

#[test]
fn health_frame_reports_services_and_connections() {
    let mut config = unix_config("health");
    config.preload = vec![DIMACS.to_string()];
    let handle = serve(config).expect("daemon starts");
    let path = handle.unix_path().expect("unix listener bound").clone();

    let mut client = Client::connect_unix(&path).expect("client connects");
    let health = client.health().expect("health round-trips");
    assert_eq!(
        health.services, 1,
        "preloaded formula counts as one service"
    );
    assert!(health.configured_workers >= 1);
    assert_eq!(health.connections, 1);
    assert_eq!(health.worker_panics, 0);

    handle.shutdown();
}
