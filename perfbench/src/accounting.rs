//! Failure accounting: every attempted operation ends as a success or as
//! exactly one failure class, and the tally reports both per workload.
//!
//! A typed `Unsat` answer for an unsatisfiable formula is a success (the
//! output check decides whether the formula really is unsatisfiable).
//! Latency percentiles are taken over successes only; a failure counts as
//! missing any latency limit.

use unigen::{OutcomeKind, SampleOutcome};
use unigen_net::{ClientError, ErrorCode};

/// Why an operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// The daemon refused a new formula: its registry is at capacity.
    RegistryFull,
    /// The daemon refused the request: its queue stayed full.
    Busy,
    /// A sample of the batch was lost to a fault.
    Faulted,
    /// A sample of the batch was interrupted by a budget.
    Interrupted,
    /// The connection failed: I/O error, bad frame, protocol violation or
    /// the server closing the socket.
    Socket,
    /// Any other typed rejection (prepare failure, unknown fingerprint, …).
    Rejected,
    /// The answer arrived but failed an output check.
    WrongOutput,
}

impl Failure {
    /// Every class, in report order.
    pub const ALL: [Failure; 7] = [
        Failure::RegistryFull,
        Failure::Busy,
        Failure::Faulted,
        Failure::Interrupted,
        Failure::Socket,
        Failure::Rejected,
        Failure::WrongOutput,
    ];

    /// The class's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            Failure::RegistryFull => "registry-full",
            Failure::Busy => "busy",
            Failure::Faulted => "faulted",
            Failure::Interrupted => "interrupted",
            Failure::Socket => "socket",
            Failure::Rejected => "rejected",
            Failure::WrongOutput => "wrong-output",
        }
    }
}

/// What a wire request came back as, before its output is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// A witness batch.
    Batch,
    /// A typed `Unsat` rejection: the daemon proved the formula has no
    /// witness.
    Unsat,
    /// A failure of the given class.
    Failed(Failure),
}

/// Classifies a client error into a [`Reply`].
pub fn classify_error(err: &ClientError) -> Reply {
    match err {
        ClientError::Rejected { code, .. } => match code {
            ErrorCode::Unsat => Reply::Unsat,
            ErrorCode::RegistryFull => Reply::Failed(Failure::RegistryFull),
            ErrorCode::Busy => Reply::Failed(Failure::Busy),
            _ => Reply::Failed(Failure::Rejected),
        },
        ClientError::Io(_)
        | ClientError::Frame(_)
        | ClientError::Protocol(_)
        | ClientError::ServerClosed => Reply::Failed(Failure::Socket),
    }
}

/// The failure a batch carries through its outcome kinds, if any. `Bottom`
/// is the paper's ⊥ and not a failure; a fault outranks an interruption.
/// A wire batch is classified through its in-process reference, whose
/// kinds the output check has found equal.
pub fn batch_failure(outcomes: &[SampleOutcome]) -> Option<Failure> {
    outcomes
        .iter()
        .filter_map(|outcome| match outcome.kind {
            OutcomeKind::Faulted => Some(Failure::Faulted),
            OutcomeKind::Interrupted => Some(Failure::Interrupted),
            OutcomeKind::Witness | OutcomeKind::Bottom => None,
        })
        .min_by_key(|failure| *failure as u8)
}

/// Attempted, succeeded and failed operations, failures split by class.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that succeeded.
    pub succeeded: u64,
    failed: [u64; Failure::ALL.len()],
}

impl Tally {
    /// Records one operation's final verdict (`None` is a success).
    pub fn record(&mut self, verdict: Option<Failure>) {
        self.attempted += 1;
        match verdict {
            None => self.succeeded += 1,
            Some(failure) => self.failed[failure as usize] += 1,
        }
    }

    /// Failed operations of one class.
    pub fn count(&self, failure: Failure) -> u64 {
        self.failed[failure as usize]
    }

    /// Failed operations of every class.
    pub fn failed(&self) -> u64 {
        self.failed.iter().sum()
    }

    /// Failed over attempted operations.
    pub fn failed_share(&self) -> f64 {
        crate::stats::ratio(self.failed() as f64, self.attempted as f64)
    }

    /// Succeeded over attempted operations.
    pub fn succeeded_share(&self) -> f64 {
        crate::stats::ratio(self.succeeded as f64, self.attempted as f64)
    }

    /// One report line: the totals and every class's count.
    pub fn summary(&self) -> String {
        let classes: Vec<String> = Failure::ALL
            .iter()
            .map(|&failure| format!("{} {}", failure.name(), self.count(failure)))
            .collect();
        format!(
            "attempted {} succeeded {} failed {} failed_share {:.4} ({})",
            self.attempted,
            self.succeeded,
            self.failed(),
            self.failed_share(),
            classes.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;
    use unigen::SampleStats;
    use unigen_net::FrameError;

    fn rejected(code: ErrorCode) -> ClientError {
        ClientError::Rejected {
            id: 1,
            code,
            detail: String::new(),
        }
    }

    #[test]
    fn typed_rejections_map_to_their_classes() {
        assert_eq!(
            classify_error(&rejected(ErrorCode::RegistryFull)),
            Reply::Failed(Failure::RegistryFull)
        );
        assert_eq!(
            classify_error(&rejected(ErrorCode::Busy)),
            Reply::Failed(Failure::Busy)
        );
        assert_eq!(
            classify_error(&rejected(ErrorCode::PrepareFailed)),
            Reply::Failed(Failure::Rejected)
        );
        // Unsat is an answer, not a failure.
        assert_eq!(classify_error(&rejected(ErrorCode::Unsat)), Reply::Unsat);
    }

    #[test]
    fn transport_errors_are_socket_failures() {
        for err in [
            ClientError::Io(io::Error::new(io::ErrorKind::BrokenPipe, "pipe")),
            ClientError::ServerClosed,
            ClientError::Protocol("bad".to_owned()),
            ClientError::Frame(FrameError::BadLengthPrefix),
        ] {
            assert_eq!(classify_error(&err), Reply::Failed(Failure::Socket));
        }
    }

    #[test]
    fn outcome_kinds_classify_batches() {
        let stats = SampleStats::default();
        let batch = [
            SampleOutcome::bottom(stats),
            SampleOutcome::interrupted(stats),
            SampleOutcome::faulted(stats),
        ];
        assert_eq!(batch_failure(&batch[..1]), None);
        assert_eq!(batch_failure(&batch[..2]), Some(Failure::Interrupted));
        assert_eq!(batch_failure(&batch), Some(Failure::Faulted));
    }

    #[test]
    fn tally_splits_failures_by_class() {
        let mut tally = Tally::default();
        tally.record(None);
        tally.record(None);
        tally.record(Some(Failure::RegistryFull));
        tally.record(Some(Failure::WrongOutput));
        assert_eq!(tally.attempted, 4);
        assert_eq!(tally.succeeded, 2);
        assert_eq!(tally.failed(), 2);
        assert_eq!(tally.count(Failure::RegistryFull), 1);
        assert_eq!(tally.count(Failure::Busy), 0);
        assert_eq!(tally.failed_share(), 0.5);
        assert!(tally.summary().contains("registry-full 1"));
        assert!(tally.summary().contains("wrong-output 1"));
    }
}
